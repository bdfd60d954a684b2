package faultfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func writeFile(t *testing.T, fs FS, path string, data []byte) {
	t.Helper()
	f, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOSPassthrough(t *testing.T) {
	fs := OS()
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	writeFile(t, fs, path, []byte("hello"))
	f, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 5)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("read %q", buf)
	}
	if err := fs.Rename(path, path+".2"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(path + ".2"); err != nil {
		t.Fatal(err)
	}
}

func TestInjectorNoRulesIsTransparent(t *testing.T) {
	in := NewInjector(nil, 1)
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	writeFile(t, in, path, []byte("payload"))
	f, err := in.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 7)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if in.Injected() != 0 {
		t.Fatalf("injected %d faults with no rules", in.Injected())
	}
}

func TestInjectedEIOOnRead(t *testing.T) {
	in := NewInjector(nil, 1)
	in.AddRule(Rule{Op: OpRead})
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	writeFile(t, in, path, []byte("payload"))
	f, err := in.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 7)
	if _, err := f.ReadAt(buf, 0); !errors.Is(err, syscall.EIO) {
		t.Fatalf("ReadAt error = %v, want EIO", err)
	}
}

func TestENOSPCOnWrite(t *testing.T) {
	in := NewInjector(nil, 1)
	in.AddRule(Rule{Op: OpWrite, Err: syscall.ENOSPC})
	dir := t.TempDir()
	f, err := in.Create(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("x")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Write error = %v, want ENOSPC", err)
	}
}

func TestShortReadDeliversPrefix(t *testing.T) {
	in := NewInjector(nil, 1)
	in.AddRule(Rule{Op: OpRead, ShortBy: 3, Err: io.ErrUnexpectedEOF})
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	writeFile(t, in, path, []byte("abcdefgh"))
	f, err := in.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 8)
	n, err := f.ReadAt(buf, 0)
	if n != 5 || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ReadAt = (%d, %v), want (5, unexpected EOF)", n, err)
	}
	if string(buf[:n]) != "abcde" {
		t.Fatalf("prefix %q", buf[:n])
	}
}

func TestTornWriteDeliversPrefix(t *testing.T) {
	in := NewInjector(nil, 1)
	in.AddRule(Rule{Op: OpWrite, ShortBy: 4, MaxFires: 1})
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	f, err := in.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n, werr := f.Write([]byte("abcdefgh"))
	f.Close()
	if n != 4 || !errors.Is(werr, syscall.EIO) {
		t.Fatalf("torn write = (%d, %v), want (4, EIO)", n, werr)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abcd" {
		t.Fatalf("file holds %q after torn write, want the 4-byte prefix", got)
	}
}

// TestEveryNAfterNMaxFires exercises the op-count predicates: skip the
// first 2 reads, then fail every 2nd matching read, at most twice.
func TestEveryNAfterNMaxFires(t *testing.T) {
	in := NewInjector(nil, 1)
	r := in.AddRule(Rule{Op: OpRead, AfterN: 2, EveryN: 2, MaxFires: 2})
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	writeFile(t, in, path, []byte("abcdefgh"))
	f, err := in.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 2)
	var outcomes []bool
	for i := 0; i < 10; i++ {
		_, err := f.ReadAt(buf, 0)
		outcomes = append(outcomes, err != nil)
	}
	// Reads 1,2 skipped (AfterN); then every 2nd of the rest fails:
	// reads 4 and 6; MaxFires stops it there.
	want := []bool{false, false, false, true, false, true, false, false, false, false}
	for i := range want {
		if outcomes[i] != want[i] {
			t.Fatalf("read %d: failed=%v, want %v (all: %v)", i+1, outcomes[i], want[i], outcomes)
		}
	}
	if st := in.Stats(r); st.Fired != 2 {
		t.Fatalf("rule fired %d times, want 2", st.Fired)
	}
}

// TestProbDeterministicPerSeed pins the seed-driven probability path:
// the same seed yields the same fault sequence, a different seed a
// (almost surely) different one, and the empirical rate is near Prob.
func TestProbDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []bool {
		in := NewInjector(nil, seed)
		in.AddRule(Rule{Op: OpRead, Prob: 0.3})
		dir := t.TempDir()
		path := filepath.Join(dir, "f")
		writeFile(t, in, path, []byte("abcdefgh"))
		f, err := in.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		buf := make([]byte, 1)
		out := make([]bool, 200)
		for i := range out {
			_, err := f.ReadAt(buf, 0)
			out[i] = err != nil
		}
		return out
	}
	a, b, c := run(7), run(7), run(8)
	same, diff, fails := true, false, 0
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
		if a[i] {
			fails++
		}
	}
	if !same {
		t.Fatal("same seed produced different fault sequences")
	}
	if !diff {
		t.Fatal("different seeds produced identical fault sequences")
	}
	if fails < 30 || fails > 90 {
		t.Fatalf("Prob 0.3 fired %d/200 times", fails)
	}
}

func TestOffsetPredicate(t *testing.T) {
	in := NewInjector(nil, 1)
	in.AddRule(Rule{Op: OpRead, OffsetLo: 4, OffsetHi: 8})
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	writeFile(t, in, path, []byte("abcdefgh"))
	f, err := in.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 2)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("read at 0 failed: %v", err)
	}
	if _, err := f.ReadAt(buf, 5); err == nil {
		t.Fatal("read at 5 (inside fault window) succeeded")
	}
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("read at 0 failed after windowed fault: %v", err)
	}
}

func TestPathPredicateAndSetEnabled(t *testing.T) {
	in := NewInjector(nil, 1)
	in.AddRule(Rule{Op: OpOpen, Path: "segment"})
	dir := t.TempDir()
	writeFile(t, in, filepath.Join(dir, "segment.seg"), []byte("x"))
	writeFile(t, in, filepath.Join(dir, "other"), []byte("x"))
	if _, err := in.Open(filepath.Join(dir, "segment.seg")); err == nil {
		t.Fatal("open of matching path succeeded")
	}
	f, err := in.Open(filepath.Join(dir, "other"))
	if err != nil {
		t.Fatalf("open of non-matching path failed: %v", err)
	}
	f.Close()
	in.SetEnabled(false)
	f, err = in.Open(filepath.Join(dir, "segment.seg"))
	if err != nil {
		t.Fatalf("open failed after SetEnabled(false): %v", err)
	}
	f.Close()
	in.SetEnabled(true)
	if _, err := in.Open(filepath.Join(dir, "segment.seg")); err == nil {
		t.Fatal("open succeeded after re-enable")
	}
}
