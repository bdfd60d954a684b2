package cluster

// Dict interns keywords to dense int32 ids in first-seen order. It is
// the string→id layer shared by consumers that want to leave strings
// behind on their hot paths (the similarity join interns every keyword
// once per run and works on int32 token ids from then on).
//
// A Dict is not safe for concurrent mutation; build it up front and
// share it read-only afterwards (ID and Word are pure lookups).
type Dict struct {
	ids   map[string]int32
	words []string
}

// NewDict returns an empty dictionary with room for n keywords, so
// interning the first n grows neither its map nor its word list.
func NewDict(n int) *Dict {
	return &Dict{ids: make(map[string]int32, n), words: make([]string, 0, n)}
}

// Intern returns the id of w, assigning the next free id on first
// sight.
func (d *Dict) Intern(w string) int32 {
	if id, ok := d.ids[w]; ok {
		return id
	}
	id := int32(len(d.words))
	d.words = append(d.words, w)
	d.ids[w] = id
	return id
}

// ID returns the id of w and whether w has been interned.
func (d *Dict) ID(w string) (int32, bool) {
	id, ok := d.ids[w]
	return id, ok
}

// Len returns the number of interned keywords.
func (d *Dict) Len() int { return len(d.words) }

// Word returns the keyword behind id.
func (d *Dict) Word(id int32) string { return d.words[id] }
