package cooccur

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"

	"repro/internal/corpus"
	"repro/internal/faultfs"
)

// privateTempDir points TMPDIR at a fresh directory for the test and
// returns it, so spill files can be looked for after a build.
func privateTempDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	return dir
}

// requireNoSpillFiles fails if a spill file is left in dir.
func requireNoSpillFiles(t *testing.T, dir string) {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(dir, spillPrefix+"*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Fatalf("spill files left behind: %v", left)
	}
}

// countingFS counts every filesystem call that creates, opens or
// removes a file or directory, and the closes of the files it hands
// out.
type countingFS struct {
	faultfs.FS
	create, open, createTemp, mkdirTemp, remove, removeAll, close int
}

type countingFile struct {
	faultfs.File
	fs *countingFS
}

func (f countingFile) Close() error {
	f.fs.close++
	return f.File.Close()
}

func (c *countingFS) Create(name string) (faultfs.File, error) {
	c.create++
	return c.FS.Create(name)
}

func (c *countingFS) Open(name string) (faultfs.File, error) {
	c.open++
	return c.FS.Open(name)
}

func (c *countingFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	c.createTemp++
	f, err := c.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, fs: c}, nil
}

func (c *countingFS) MkdirTemp(dir, pattern string) (string, error) {
	c.mkdirTemp++
	return c.FS.MkdirTemp(dir, pattern)
}

func (c *countingFS) Remove(name string) error {
	c.remove++
	return c.FS.Remove(name)
}

func (c *countingFS) RemoveAll(path string) error {
	c.removeAll++
	return c.FS.RemoveAll(path)
}

func (c *countingFS) counts() [7]int {
	return [7]int{c.createTemp, c.remove, c.close, c.mkdirTemp, c.create, c.open, c.removeAll}
}

// spillFileOps is what a spilled build does to the filesystem: create
// one temp file, remove its name and close it, nothing else.
var spillFileOps = [7]int{1, 1, 1, 0, 0, 0, 0}

// TestBuildSpillFileOps: a spilled build, fan-in pass included, creates
// one temp file, removes and closes it, and touches no other file or
// directory; a build that does not spill touches none.
func TestBuildSpillFileOps(t *testing.T) {
	dir := privateTempDir(t)
	col := equivCorpus(t, 5, 300)
	for _, tc := range []struct {
		name   string
		budget int
		want   [7]int
	}{
		{"in memory", 0, [7]int{}},
		{"spilled", 4 << 10, spillFileOps},
	} {
		cfs := &countingFS{FS: faultfs.OS()}
		_, st, err := new(Builder).buildCtx(context.Background(), col, 0, 1, BuildOptions{MemBudget: tc.budget}, nil, cfs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.budget > 0 && st.fanInPasses == 0 {
			t.Fatalf("%s: %d runs and no fan-in pass", tc.name, st.spills)
		}
		if got := cfs.counts(); got != tc.want {
			t.Errorf("%s: CreateTemp, Remove, Close, MkdirTemp, Create, Open, RemoveAll = %v, want %v", tc.name, got, tc.want)
		}
		requireNoSpillFiles(t, dir)
	}
}

// faultBuild runs a spilled build over fs with a private TMPDIR and
// checks that it failed with cause, closed and removed its spill file,
// and left no file behind.
func faultBuild(t *testing.T, ctx context.Context, fs faultfs.FS, cause error) {
	t.Helper()
	dir := privateTempDir(t)
	col := equivCorpus(t, 5, 2000)
	cfs := &countingFS{FS: fs}
	_, _, err := new(Builder).buildCtx(ctx, col, 0, 0, BuildOptions{MemBudget: 64 << 10}, nil, cfs)
	if !errors.Is(err, cause) {
		t.Fatalf("build = %v, want an error that is %v", err, cause)
	}
	if got := cfs.counts(); got != spillFileOps {
		t.Errorf("CreateTemp, Remove, Close, MkdirTemp, Create, Open, RemoveAll = %v, want %v", got, spillFileOps)
	}
	requireNoSpillFiles(t, dir)
}

func TestFaultBuildSpillENOSPC(t *testing.T) {
	in := faultfs.NewInjector(nil, 1)
	rule := in.AddRule(faultfs.Rule{Op: faultfs.OpWrite, Path: spillPrefix, AfterN: 1, Err: syscall.ENOSPC})
	faultBuild(t, context.Background(), in, syscall.ENOSPC)
	if in.Stats(rule).Fired == 0 {
		t.Fatal("the ENOSPC rule never fired")
	}
}

func TestFaultBuildSpillReadEIO(t *testing.T) {
	in := faultfs.NewInjector(nil, 1)
	rule := in.AddRule(faultfs.Rule{Op: faultfs.OpRead, Path: spillPrefix, AfterN: 3})
	faultBuild(t, context.Background(), in, syscall.EIO)
	if in.Stats(rule).Fired == 0 {
		t.Fatal("the EIO rule never fired")
	}
}

func TestFaultBuildSpillShortRead(t *testing.T) {
	in := faultfs.NewInjector(nil, 1)
	rule := in.AddRule(faultfs.Rule{Op: faultfs.OpRead, Path: spillPrefix, AfterN: 2, ShortBy: spillRecordLen, Err: io.ErrUnexpectedEOF})
	faultBuild(t, context.Background(), in, io.ErrUnexpectedEOF)
	if in.Stats(rule).Fired == 0 {
		t.Fatal("the short-read rule never fired")
	}
}

// cancelOnReadFS cancels a context at the first read of a spill file,
// which the final merge makes: the build is abandoned mid-merge. It
// also notes whether the file still had a name then, which a process
// killed at that point would leave behind.
type cancelOnReadFS struct {
	faultfs.FS
	cancel context.CancelFunc
	reads  int
	named  bool
}

func (c *cancelOnReadFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	f, err := c.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return cancelOnReadFile{File: f, fs: c}, nil
}

type cancelOnReadFile struct {
	faultfs.File
	fs *cancelOnReadFS
}

func (f cancelOnReadFile) ReadAt(p []byte, off int64) (int, error) {
	if _, err := os.Stat(f.Name()); err == nil {
		f.fs.named = true
	}
	f.fs.reads++
	f.fs.cancel()
	return f.File.ReadAt(p, off)
}

func TestFaultBuildSpillCanceledMidMerge(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfs := &cancelOnReadFS{FS: faultfs.OS(), cancel: cancel}
	faultBuild(t, ctx, cfs, context.Canceled)
	if cfs.reads == 0 {
		t.Fatal("the build never read its spill file")
	}
	if cfs.named {
		t.Error("the spill file still had a name mid-merge")
	}
}

// TestSpillMergeRejectsOutOfOrderRun: a run whose keys go down is a
// corrupt spill file, and the merge says so instead of folding it.
func TestSpillMergeRejectsOutOfOrderRun(t *testing.T) {
	privateTempDir(t)
	s := &spillFile{fs: faultfs.OS()}
	defer s.close()
	for _, run := range [][]pairEntry{{{1, 1}, {4, 1}}, {{2, 1}, {5, 1}, {3, 1}}} {
		if err := s.appendRun(run); err != nil {
			t.Fatal(err)
		}
	}
	var keys []uint64
	err := s.merge(context.Background(), s.runs, s.size, s.buf, func(key uint64, _ int64) error {
		keys = append(keys, key)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "corrupt spill run") {
		t.Fatalf("merge of an out-of-order run = %v (keys %v), want a corruption error", err, keys)
	}
}

// fuzzCorpus turns fuzz bytes into a two-interval collection: every
// byte below 0xf0 is one of 64 keywords, a byte from 0xf0 up ends a
// document, and documents alternate between the intervals.
func fuzzCorpus(docs []byte) *corpus.Collection {
	col := &corpus.Collection{Intervals: []corpus.Interval{{Index: 0}, {Index: 1}}}
	var (
		kws  []string
		ndoc int
	)
	endDoc := func() {
		iv := &col.Intervals[ndoc%2]
		iv.Docs = append(iv.Docs, corpus.Document{ID: int64(ndoc), Interval: iv.Index, Keywords: kws})
		kws = nil
		ndoc++
	}
	for _, b := range docs {
		if b >= 0xf0 {
			endDoc()
			continue
		}
		if w := fmt.Sprintf("k%02d", b%64); !slices.Contains(kws, w) {
			kws = append(kws, w)
		}
	}
	endDoc()
	return col
}

// FuzzBuildSpill checks builds at fuzz-chosen budgets of 64 B to 64 KiB
// against naiveGraph on a fuzz-chosen corpus (see fuzzCorpus). Small
// budgets spill a run per document and drive the fan-in pass.
func FuzzBuildSpill(f *testing.F) {
	f.Add(uint16(0), uint8(1), []byte{1, 2, 3, 0xff, 1, 2, 0xff, 2, 3, 4, 5})
	f.Add(uint16(200), uint8(2), []byte("the quick brown fox\xffjumps over the lazy dog\xffthe dog\xff"))
	f.Add(uint16(1000), uint8(1), slices.Repeat([]byte{5, 9, 13, 17, 21, 25, 0xf0, 6, 9, 12, 17, 0xf1}, 40))
	f.Fuzz(func(t *testing.T, budget uint16, minCount uint8, docs []byte) {
		col := fuzzCorpus(docs)
		opts := BuildOptions{
			MemBudget:    64 + int(budget)%(64<<10-63),
			MinPairCount: int64(minCount%3) + 1,
		}
		g, err := Build(col, 0, 1, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		requireIdenticalGraphs(t, naiveGraph(col, 0, 1, opts.MinPairCount), g, fmt.Sprintf("%+v", opts))
	})
}
