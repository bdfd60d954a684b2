package text

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"Hello, World!", []string{"hello", "world"}},
		{"stem-cell research (amniotic)", []string{"stem", "cell", "research", "amniotic"}},
		{"don't stop", []string{"don", "t", "stop"}},
		{"  spaced   out  ", []string{"spaced", "out"}},
		{"MLS2007 LA-Galaxy", []string{"mls2007", "la", "galaxy"}},
		{"ÜBER Café", []string{"über", "café"}},
		{"a.b.c", []string{"a", "b", "c"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// Property: every token is non-empty, lower-case, and contains only
// letters/digits.
func TestTokenizeProperty(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" {
				return false
			}
			if tok != strings.ToLower(tok) {
				return false
			}
			for _, r := range tok {
				if !isLetterOrDigit(r) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func isLetterOrDigit(r rune) bool {
	return ('a' <= r && r <= 'z') || ('0' <= r && r <= '9') || r > 127
}

func TestAnalyzerKeywords(t *testing.T) {
	a := NewAnalyzer()
	got := a.Keywords("The scientists discovered new stem cells; the scientists were thrilled about stem cells!")
	// "the", "were", "about" are stop words; duplicates collapse;
	// "scientists" stems to "scientist", "cells" to "cell",
	// "discovered" to "discov", "thrilled" to "thrill".
	want := []string{"scientist", "discov", "stem", "cell", "thrill"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Keywords = %v, want %v", got, want)
	}
}

func TestAnalyzerDropsNumbersAndShortTokens(t *testing.T) {
	a := NewAnalyzer()
	got := a.Keywords("in 2007 an ox ate 42 apples")
	want := []string{"appl"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Keywords = %v, want %v", got, want)
	}
	a.KeepNumbers = true
	got = a.Keywords("in 2007 an ox ate 42 apples")
	want = []string{"2007", "appl"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Keywords with numbers = %v, want %v", got, want)
	}
}

func TestAnalyzerNoStemming(t *testing.T) {
	a := &Analyzer{Stem: false}
	got := a.Keywords("running galaxies")
	want := []string{"running", "galaxies"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Keywords = %v, want %v", got, want)
	}
}

func TestAnalyzerCustomStopWords(t *testing.T) {
	a := &Analyzer{Stem: true, StopWords: map[string]struct{}{"galaxy": {}}}
	got := a.Keywords("the galaxy and the stars")
	// Custom set does not include "the"/"and", so they survive as stems.
	want := []string{"the", "and", "star"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Keywords = %v, want %v", got, want)
	}
}

func TestAnalyzerKeywordsAreSet(t *testing.T) {
	a := NewAnalyzer()
	f := func(s string) bool {
		kws := a.Keywords(s)
		seen := map[string]struct{}{}
		for _, k := range kws {
			if _, dup := seen[k]; dup {
				return false
			}
			seen[k] = struct{}{}
			if len(k) < MinTokenLen {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIsStopWord(t *testing.T) {
	for _, w := range []string{"the", "and", "was", "of"} {
		if !IsStopWord(w) {
			t.Errorf("IsStopWord(%q) = false, want true", w)
		}
	}
	for _, w := range []string{"galaxy", "stem", "iphone"} {
		if IsStopWord(w) {
			t.Errorf("IsStopWord(%q) = true, want false", w)
		}
	}
}

func BenchmarkAnalyzerKeywords(b *testing.B) {
	a := NewAnalyzer()
	post := strings.Repeat("Scientists at Wake Forest University report discovery of a new type of stem cell in amniotic fluid, a potential alternative to embryonic stem cells. ", 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Keywords(post)
	}
}

// referenceTokenize lower-cases every run of letters and digits into
// a fresh string, rune by rune: the tokens Tokenize must return.
func referenceTokenize(s string) []string {
	var tokens []string
	var b strings.Builder
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
			continue
		}
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	if b.Len() > 0 {
		tokens = append(tokens, b.String())
	}
	return tokens
}

// FuzzFirstKeyword holds First to Keywords: on any string it returns
// Keywords(s)[0], or reports none when Keywords(s) is empty, with and
// without stemming. It also holds Tokenize, whose tokens First reads
// in place, to referenceTokenize.
func FuzzFirstKeyword(f *testing.F) {
	for _, seed := range []string{
		"",
		"Somalia",
		"the and of",
		"ÜBER Café naïve",
		"2007 42 mls2007",
		"times somalia", // "times" stems to the stop word "time"
		"don't stop the Galaxy's run",
		"ab ÉTÉ x\xffy ΣΊΣΥΦΟΣ",
	} {
		f.Add(seed)
	}
	analyzers := []*Analyzer{NewAnalyzer(), {Stem: false}, {Stem: true, KeepNumbers: true}}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Tokenize(s), referenceTokenize(s); !slices.Equal(got, want) {
			t.Fatalf("Tokenize(%q) = %q, want %q", s, got, want)
		}
		for _, a := range analyzers {
			kw, ok := a.First(s)
			kws := a.Keywords(s)
			if ok != (len(kws) > 0) || ok && kw != kws[0] {
				t.Fatalf("%+v: First(%q) = %q, %v; Keywords = %q", *a, s, kw, ok, kws)
			}
		}
	})
}

func TestFirstKeywordStopsOnStemmedStopWord(t *testing.T) {
	if IsStopWord("times") || !IsStopWord(Stem("times")) {
		t.Fatalf("seed premise: %q is not a stop word and stems to one", "times")
	}
	if kw, ok := NewAnalyzer().First("times somalia"); !ok || kw != "somalia" {
		t.Fatalf("First = %q, %v, want somalia", kw, ok)
	}
}
