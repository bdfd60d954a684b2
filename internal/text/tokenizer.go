// Package text provides the lexical substrate of the pipeline: a
// Unicode-aware tokenizer, an English stop-word list and a from-scratch
// implementation of the Porter stemming algorithm.
//
// Section 3 of the paper processes each blog post by tokenizing it,
// stemming every keyword and removing stop words before keyword pairs
// are emitted. Analyzer bundles those three steps.
package text

import (
	"iter"
	"strings"
	"unicode"
)

// MinTokenLen is the minimum length (in runes) of a token that survives
// analysis. One- and two-letter fragments carry almost no topical signal
// and would otherwise dominate the co-occurrence graph.
const MinTokenLen = 3

// MaxTokenLen caps pathological tokens (base64 blobs, URLs that slipped
// through markup stripping) so they cannot bloat the keyword index.
const MaxTokenLen = 40

// Tokenize splits s into lower-cased word tokens. A token is a maximal
// run of letters or digits. Apostrophes act as separators, so "don't"
// yields "don" and "t"; the short fragment is later removed by the
// Analyzer's length filter. Everything else (punctuation, markup
// leftovers) separates tokens too.
func Tokenize(s string) []string {
	tokens := make([]string, 0, len(s)/6)
	for tok := range eachToken(s) {
		tokens = append(tokens, tok)
	}
	return tokens
}

// eachToken yields the tokens of s in order, as Tokenize splits them. A
// run that lower-casing leaves as it is is yielded as a substring of s;
// only a run with an upper-case letter is copied.
func eachToken(s string) iter.Seq[string] {
	return func(yield func(string) bool) {
		start, lower := -1, true
		for i, r := range s {
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				if start < 0 {
					start, lower = i, true
				}
				if unicode.ToLower(r) != r {
					lower = false
				}
				continue
			}
			if start >= 0 && !yield(lowered(s[start:i], lower)) {
				return
			}
			start = -1
		}
		if start >= 0 {
			yield(lowered(s[start:], lower))
		}
	}
}

// lowered returns the run lower-cased; lower says it already is.
func lowered(run string, lower bool) string {
	if lower {
		return run
	}
	var b strings.Builder
	b.Grow(len(run))
	for _, r := range run {
		b.WriteRune(unicode.ToLower(r))
	}
	return b.String()
}

// Analyzer converts raw post text into the bag of keywords used by the
// co-occurrence stage: tokenize, drop stop words, stem, drop tokens that
// are too short or too long, and de-duplicate (a document is a set of
// keywords for the purposes of A(u,v); see Section 3: AD(u,v) is 0/1).
type Analyzer struct {
	// Stem disables stemming when false. The paper always stems; the
	// switch exists for ablation and tests.
	Stem bool
	// StopWords is the active stop-word set. Nil means DefaultStopWords.
	StopWords map[string]struct{}
	// KeepNumbers retains pure-digit tokens when true. Bare numbers are
	// dropped by default: "2007" style tokens co-occur with everything
	// and add noise without topical value.
	KeepNumbers bool
}

// NewAnalyzer returns an Analyzer configured the way the paper's
// pipeline is described: stemming on, default stop words, numbers
// dropped. An Analyzer is only read once configured, so one value may
// serve any number of goroutines.
func NewAnalyzer() *Analyzer {
	return &Analyzer{Stem: true}
}

// Keywords returns the sorted-free (insertion-ordered) set of analyzed
// keywords in s. Each keyword appears once regardless of its frequency
// inside the document.
func (a *Analyzer) Keywords(s string) []string {
	seen := make(map[string]struct{})
	var out []string
	for tok := range eachToken(s) {
		kw, ok := a.keyword(tok)
		if !ok {
			continue
		}
		if _, dup := seen[kw]; dup {
			continue
		}
		seen[kw] = struct{}{}
		out = append(out, kw)
	}
	return out
}

// First returns Keywords(s)[0], or false when Keywords(s) is empty. It
// stops at the first token the filter keeps, and builds neither the
// token list nor the set.
func (a *Analyzer) First(s string) (string, bool) {
	for tok := range eachToken(s) {
		if kw, ok := a.keyword(tok); ok {
			return kw, true
		}
	}
	return "", false
}

// keyword is the filter Keywords and First run each token through: it
// returns the token's keyword, or false when the token is dropped.
func (a *Analyzer) keyword(tok string) (string, bool) {
	stop := a.StopWords
	if stop == nil {
		stop = DefaultStopWords
	}
	if len(tok) < MinTokenLen || len(tok) > MaxTokenLen {
		return "", false
	}
	if !a.KeepNumbers && isAllDigits(tok) {
		return "", false
	}
	if _, ok := stop[tok]; ok {
		return "", false
	}
	if a.Stem {
		tok = Stem(tok)
	}
	if len(tok) < MinTokenLen {
		return "", false
	}
	// Stemming can map a non-stop word onto a stop word
	// ("being" -> "be" would, if "be" were produced); re-check.
	if _, ok := stop[tok]; ok {
		return "", false
	}
	return tok, true
}

func isAllDigits(s string) bool {
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return len(s) > 0
}
