package text

// Porter stemming algorithm, implemented from the original description:
// M.F. Porter, "An algorithm for suffix stripping", Program 14(3) 1980.
//
// The paper stems every keyword before building the co-occurrence graph
// ("after stemming and removal of stop words", Section 3); the example
// figures show stemmed keywords ("madr", "beckham", "galaxi"). This is a
// faithful, allocation-light implementation operating on ASCII lower-case
// input (the tokenizer lower-cases; non-ASCII words pass through
// unchanged).

// Stem returns the Porter stem of word. The input is expected to be
// lower-case; words shorter than 3 bytes or containing non a-z bytes are
// returned unchanged.
func Stem(word string) string {
	if len(word) < 3 {
		return word
	}
	for i := 0; i < len(word); i++ {
		if word[i] < 'a' || word[i] > 'z' {
			return word
		}
	}
	b := []byte(word)
	b = step1a(b)
	b = step1b(b)
	b = step1c(b)
	b = step2(b)
	b = step3(b)
	b = step4(b)
	b = step5a(b)
	b = step5b(b)
	if string(b) == word {
		return word // a word that is its own stem costs no copy
	}
	return string(b)
}

// isCons reports whether b[i] is a consonant in Porter's sense: a letter
// other than a,e,i,o,u, and 'y' is a consonant only when preceded by a
// vowel position (or at the start).
func isCons(b []byte, i int) bool {
	switch b[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !isCons(b, i-1)
	default:
		return true
	}
}

// measure computes m of the stem b[:end]: the number of VC sequences in
// the [C](VC)^m[V] decomposition.
func measure(b []byte, end int) int {
	n := 0
	i := 0
	// Skip initial consonant run.
	for i < end && isCons(b, i) {
		i++
	}
	for {
		// Vowel run.
		if i >= end {
			return n
		}
		for i < end && !isCons(b, i) {
			i++
		}
		if i >= end {
			return n
		}
		// Consonant run closes a VC pair.
		for i < end && isCons(b, i) {
			i++
		}
		n++
	}
}

// hasVowel reports whether the stem b[:end] contains a vowel.
func hasVowel(b []byte, end int) bool {
	for i := 0; i < end; i++ {
		if !isCons(b, i) {
			return true
		}
	}
	return false
}

// endsDoubleCons reports whether b ends with a doubled consonant (*d).
func endsDoubleCons(b []byte) bool {
	n := len(b)
	if n < 2 || b[n-1] != b[n-2] {
		return false
	}
	return isCons(b, n-1)
}

// endsCVC reports *o: stem ends consonant-vowel-consonant where the final
// consonant is not w, x or y.
func endsCVC(b []byte, end int) bool {
	if end < 3 {
		return false
	}
	if !isCons(b, end-3) || isCons(b, end-2) || !isCons(b, end-1) {
		return false
	}
	switch b[end-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

// hasSuffix reports whether b ends with suf.
func hasSuffix(b []byte, suf string) bool {
	if len(b) < len(suf) {
		return false
	}
	return string(b[len(b)-len(suf):]) == suf
}

// replaceSuffix replaces suffix suf with rep when the remaining stem has
// measure > m. It reports whether the suffix matched (regardless of
// whether the replacement fired), so rule lists can stop at the first
// matching suffix, as Porter specifies.
func replaceSuffix(b []byte, suf, rep string, m int) ([]byte, bool) {
	if !hasSuffix(b, suf) {
		return b, false
	}
	stem := len(b) - len(suf)
	if measure(b, stem) > m {
		b = append(b[:stem], rep...)
	}
	return b, true
}

func step1a(b []byte) []byte {
	switch {
	case hasSuffix(b, "sses"):
		return b[:len(b)-2] // sses -> ss
	case hasSuffix(b, "ies"):
		return b[:len(b)-2] // ies -> i
	case hasSuffix(b, "ss"):
		return b // ss -> ss
	case hasSuffix(b, "s"):
		return b[:len(b)-1] // s ->
	}
	return b
}

func step1b(b []byte) []byte {
	if hasSuffix(b, "eed") {
		if measure(b, len(b)-3) > 0 {
			return b[:len(b)-1] // eed -> ee when m>0
		}
		return b
	}
	cleanup := false
	if hasSuffix(b, "ed") && hasVowel(b, len(b)-2) {
		b = b[:len(b)-2]
		cleanup = true
	} else if hasSuffix(b, "ing") && hasVowel(b, len(b)-3) {
		b = b[:len(b)-3]
		cleanup = true
	}
	if !cleanup {
		return b
	}
	switch {
	case hasSuffix(b, "at"), hasSuffix(b, "bl"), hasSuffix(b, "iz"):
		return append(b, 'e')
	case endsDoubleCons(b) && !hasSuffix(b, "l") && !hasSuffix(b, "s") && !hasSuffix(b, "z"):
		return b[:len(b)-1]
	case measure(b, len(b)) == 1 && endsCVC(b, len(b)):
		return append(b, 'e')
	}
	return b
}

func step1c(b []byte) []byte {
	if hasSuffix(b, "y") && hasVowel(b, len(b)-1) {
		b[len(b)-1] = 'i'
	}
	return b
}

// step2 maps double suffixes to single ones when m>0. Order follows
// Porter's list; only the first matching suffix is considered.
func step2(b []byte) []byte {
	rules := []struct{ suf, rep string }{
		{"ational", "ate"},
		{"tional", "tion"},
		{"enci", "ence"},
		{"anci", "ance"},
		{"izer", "ize"},
		{"abli", "able"},
		{"alli", "al"},
		{"entli", "ent"},
		{"eli", "e"},
		{"ousli", "ous"},
		{"ization", "ize"},
		{"ation", "ate"},
		{"ator", "ate"},
		{"alism", "al"},
		{"iveness", "ive"},
		{"fulness", "ful"},
		{"ousness", "ous"},
		{"aliti", "al"},
		{"iviti", "ive"},
		{"biliti", "ble"},
	}
	for _, r := range rules {
		if nb, matched := replaceSuffix(b, r.suf, r.rep, 0); matched {
			return nb
		}
	}
	return b
}

func step3(b []byte) []byte {
	rules := []struct{ suf, rep string }{
		{"icate", "ic"},
		{"ative", ""},
		{"alize", "al"},
		{"iciti", "ic"},
		{"ical", "ic"},
		{"ful", ""},
		{"ness", ""},
	}
	for _, r := range rules {
		if nb, matched := replaceSuffix(b, r.suf, r.rep, 0); matched {
			return nb
		}
	}
	return b
}

// step4 strips residual suffixes when m>1.
func step4(b []byte) []byte {
	suffixes := []string{
		"al", "ance", "ence", "er", "ic", "able", "ible", "ant",
		"ement", "ment", "ent", "ion", "ou", "ism", "ate", "iti",
		"ous", "ive", "ize",
	}
	for _, suf := range suffixes {
		if !hasSuffix(b, suf) {
			continue
		}
		stem := len(b) - len(suf)
		if suf == "ion" {
			// (m>1 and (*S or *T)) ION ->
			if stem > 0 && (b[stem-1] == 's' || b[stem-1] == 't') && measure(b, stem) > 1 {
				return b[:stem]
			}
			return b
		}
		if measure(b, stem) > 1 {
			return b[:stem]
		}
		return b
	}
	return b
}

func step5a(b []byte) []byte {
	if !hasSuffix(b, "e") {
		return b
	}
	stem := len(b) - 1
	m := measure(b, stem)
	if m > 1 || (m == 1 && !endsCVC(b, stem)) {
		return b[:stem]
	}
	return b
}

func step5b(b []byte) []byte {
	if hasSuffix(b, "ll") && measure(b, len(b)) > 1 {
		return b[:len(b)-1]
	}
	return b
}
