package types

import (
	"fmt"
	"math"
	"testing"
)

// checkDateJSON holds one date to the AppendJSON contract: the bytes
// fmt produced before AppendJSON existed, appended after whatever dst
// already held, with String and MarshalJSON on the same path, and
// UnmarshalJSON taking them back.
func checkDateJSON(t *testing.T, d Date) {
	t.Helper()
	y, m, dd := d.Civil()
	want := fmt.Sprintf(`"%04d-%02d-%02d"`, y, m, dd)
	if got := string(d.AppendJSON([]byte("x"))); got != "x"+want {
		t.Fatalf("AppendJSON(%d) = %s, want x%s", d, got, want)
	}
	if got := d.String(); got != want[1:len(want)-1] {
		t.Fatalf("String(%d) = %s, want %s", d, got, want)
	}
	if b, err := d.MarshalJSON(); err != nil || string(b) != want {
		t.Fatalf("MarshalJSON(%d) = %s, %v", d, b, err)
	}
	var back Date
	if err := back.UnmarshalJSON([]byte(want)); err != nil || back != d {
		t.Fatalf("UnmarshalJSON(%s) = %d, %v; want %d", want, back, err, d)
	}
}

var dateJSONEdges = []Date{
	0, -1, 1,
	MakeDate(1992, 1, 1), MakeDate(1998, 12, 31), MakeDate(2000, 2, 29),
	MakeDate(999, 12, 31), MakeDate(1000, 1, 1), MakeDate(9999, 12, 31), MakeDate(10000, 1, 1),
	MakeDate(0, 1, 1), MakeDate(-1, 12, 31), MakeDate(-99, 1, 1), MakeDate(-100, 1, 1), MakeDate(-1000, 6, 15),
	math.MaxInt32, math.MinInt32,
}

func TestDateAppendJSONEdges(t *testing.T) {
	for _, d := range dateJSONEdges {
		checkDateJSON(t, d)
	}
	if n := len(Date(math.MinInt32).AppendJSON(nil)); n != maxDateJSONLen {
		t.Errorf("longest wire form is %d bytes, maxDateJSONLen says %d", n, maxDateJSONLen)
	}
	if a := testing.AllocsPerRun(100, func() {
		var buf [maxDateJSONLen]byte
		_ = Date(math.MinInt32).AppendJSON(buf[:0])
	}); a != 0 {
		t.Errorf("AppendJSON allocates %v times into a sized buffer", a)
	}
}

func FuzzDateAppendJSON(f *testing.F) {
	for _, d := range dateJSONEdges {
		f.Add(int32(d))
	}
	f.Fuzz(func(t *testing.T, d int32) {
		checkDateJSON(t, Date(d))
	})
}
