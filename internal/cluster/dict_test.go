package cluster

import "testing"

func TestDict(t *testing.T) {
	d := NewDict(0)
	a := d.Intern("alpha")
	b := d.Intern("beta")
	if a == b {
		t.Fatalf("distinct words share id %d", a)
	}
	if got := d.Intern("alpha"); got != a {
		t.Errorf("re-interning alpha: id %d, want %d", got, a)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
	if w := d.Word(b); w != "beta" {
		t.Errorf("Word(%d) = %q, want beta", b, w)
	}
	if id, ok := d.ID("beta"); !ok || id != b {
		t.Errorf("ID(beta) = %d,%v; want %d,true", id, ok, b)
	}
	if _, ok := d.ID("gamma"); ok {
		t.Error("ID reports an uninterned word as present")
	}
}
