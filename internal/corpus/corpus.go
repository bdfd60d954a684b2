// Package corpus models the temporally ordered document collections that
// feed the pipeline: blog posts bucketed into temporal intervals (the
// paper uses one day), JSONL persistence, and a deterministic synthetic
// generator that stands in for the BlogScope crawl (see DESIGN.md,
// substitutions).
package corpus

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Document is a single blog post represented, as in Section 3 of the
// paper, as a bag of words. Keywords are the analyzed (stemmed,
// stop-word-free) set; each keyword appears at most once because the
// indicator AD(u,v) is binary per document.
type Document struct {
	// ID identifies the post within its collection.
	ID int64 `json:"id"`
	// Interval is the index of the temporal interval (e.g. day number)
	// the post was created in.
	Interval int `json:"interval"`
	// Keywords is the set of analyzed keywords of the post body.
	Keywords []string `json:"keywords"`
}

// Interval is one temporal bucket of documents (all posts created in a
// given day, in the paper's instantiation).
type Interval struct {
	// Index is the 0-based position of the interval in the stream.
	Index int
	// Label is a human-readable tag such as "Jan 6 2007".
	Label string
	// Docs are the posts created during the interval.
	Docs []Document
}

// Collection is a temporally ordered sequence of intervals.
type Collection struct {
	Intervals []Interval
}

// NumDocs returns the total number of documents across all intervals.
func (c *Collection) NumDocs() int {
	n := 0
	for _, iv := range c.Intervals {
		n += len(iv.Docs)
	}
	return n
}

// DayLabels produces m consecutive day labels starting at start,
// formatted like the paper ("Jan 6 2007").
func DayLabels(start time.Time, m int) []string {
	labels := make([]string, m)
	for i := 0; i < m; i++ {
		labels[i] = start.AddDate(0, 0, i).Format("Jan 2 2006")
	}
	return labels
}

// WriteJSONL streams the collection to w, one document per line,
// preceded by no header: the interval index inside each document record
// is sufficient to rebuild the bucketing.
func (c *Collection) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, iv := range c.Intervals {
		for _, d := range iv.Docs {
			if d.Interval != iv.Index {
				return fmt.Errorf("corpus: document %d claims interval %d but is stored in interval %d", d.ID, d.Interval, iv.Index)
			}
			if err := enc.Encode(d); err != nil {
				return fmt.Errorf("corpus: encode document %d: %w", d.ID, err)
			}
		}
	}
	return bw.Flush()
}

// ReadJSONL rebuilds a collection from the JSONL stream produced by
// WriteJSONL (or by any external exporter that emits the same schema).
// Interval labels are not stored in the stream; the caller may assign
// them afterwards.
func ReadJSONL(r io.Reader) (*Collection, error) {
	byInterval := map[int][]Document{}
	maxIdx := -1
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var d Document
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			return nil, fmt.Errorf("corpus: line %d: %w", line, err)
		}
		if d.Interval < 0 {
			return nil, fmt.Errorf("corpus: line %d: negative interval %d", line, d.Interval)
		}
		byInterval[d.Interval] = append(byInterval[d.Interval], d)
		if d.Interval > maxIdx {
			maxIdx = d.Interval
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("corpus: scan: %w", err)
	}
	c := &Collection{Intervals: make([]Interval, maxIdx+1)}
	for i := 0; i <= maxIdx; i++ {
		c.Intervals[i] = Interval{Index: i, Docs: byInterval[i]}
	}
	return c, nil
}

// Vocabulary returns the sorted set of distinct keywords in the
// collection.
func (c *Collection) Vocabulary() []string {
	set := map[string]struct{}{}
	for _, iv := range c.Intervals {
		for _, d := range iv.Docs {
			for _, k := range d.Keywords {
				set[k] = struct{}{}
			}
		}
	}
	vocab := make([]string, 0, len(set))
	for k := range set {
		vocab = append(vocab, k)
	}
	sort.Strings(vocab)
	return vocab
}
