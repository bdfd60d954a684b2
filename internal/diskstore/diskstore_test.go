package diskstore

import "testing"

func TestIOStatsAdd(t *testing.T) {
	a := IOStats{RandomReads: 1, SequentialReads: 2, Writes: 3, BytesRead: 4, BytesWritten: 5}
	b := IOStats{RandomReads: 10, SequentialReads: 20, Writes: 30, BytesRead: 40, BytesWritten: 50}
	a.Add(b)
	want := IOStats{RandomReads: 11, SequentialReads: 22, Writes: 33, BytesRead: 44, BytesWritten: 55}
	if a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
}
