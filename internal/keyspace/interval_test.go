package keyspace

import (
	"strings"
	"testing"
	"testing/quick"

	"pgrid/internal/testutil"
)

func TestIntervalBasics(t *testing.T) {
	iv := Interval{Lo: 0.25, Hi: 0.5}
	if !iv.Contains(0.25) || !iv.Contains(0.4) || iv.Contains(0.5) || iv.Contains(0.1) {
		t.Error("Contains wrong")
	}
	if iv.Width() != 0.25 {
		t.Error("Width wrong")
	}
	if iv.Mid() != 0.375 {
		t.Error("Mid wrong")
	}
	l, r := iv.Bisect()
	if l.Lo != 0.25 || l.Hi != 0.375 || r.Lo != 0.375 || r.Hi != 0.5 {
		t.Errorf("Bisect = %v %v", l, r)
	}
	if iv.Empty() || (Interval{Lo: 1, Hi: 1}).Empty() == false {
		t.Error("Empty wrong")
	}
	if !iv.Overlaps(Interval{Lo: 0.4, Hi: 0.6}) || iv.Overlaps(Interval{Lo: 0.5, Hi: 0.6}) {
		t.Error("Overlaps wrong")
	}
	if iv.String() != "[0.25,0.5)" {
		t.Errorf("String = %q", iv.String())
	}
	if !Unit.ContainsKey(MustFromString("1010")) {
		t.Error("unit interval should contain every key")
	}
}

func TestBisectPreservesMeasureProperty(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = frac(a), frac(b)
		if a > b {
			a, b = b, a
		}
		iv := Interval{Lo: a, Hi: b}
		l, r := iv.Bisect()
		return abs(l.Width()+r.Width()-iv.Width()) < 1e-12 && l.Hi == r.Lo
	}
	if err := quick.Check(f, testutil.QuickConfig(t, 1000, 503)); err != nil {
		t.Error(err)
	}
}

func TestRangeContainsKey(t *testing.T) {
	lo := MustFromString("0100")
	hi := MustFromString("1000")
	r := NewRange(lo, hi)
	if !r.ContainsKey(MustFromString("0100")) {
		t.Error("lower bound should be inclusive")
	}
	if r.ContainsKey(MustFromString("1000")) {
		t.Error("upper bound should be exclusive")
	}
	if !r.ContainsKey(MustFromString("0111")) {
		t.Error("interior key missing")
	}
	if r.ContainsKey(MustFromString("0011")) {
		t.Error("key below range accepted")
	}
	unbounded := RangeFrom(lo)
	if !unbounded.ContainsKey(MustFromString("1111")) {
		t.Error("unbounded range should contain large keys")
	}
}

func TestRangeOverlapsPath(t *testing.T) {
	r := NewRange(MustFromFloat(0.3, 16), MustFromFloat(0.6, 16))
	cases := []struct {
		p    Path
		want bool
	}{
		{"0", true},   // [0,0.5) overlaps
		{"1", true},   // [0.5,1) overlaps
		{"00", false}, // [0,0.25) does not
		{"11", false}, // [0.75,1) does not
		{"01", true},
		{"10", true},
	}
	for _, c := range cases {
		if got := r.OverlapsPath(c.p); got != c.want {
			t.Errorf("OverlapsPath(%q) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRangePathsCoverRange(t *testing.T) {
	r := NewRange(MustFromFloat(0.2, 20), MustFromFloat(0.7, 20))
	paths := r.Paths(6)
	if len(paths) == 0 {
		t.Fatal("no covering paths")
	}
	// Every key inside the range must have a prefix among the paths, and no
	// two paths may be in prefix relation (minimality of the cover).
	for i := 0; i < 100; i++ {
		x := 0.2 + 0.5*float64(i)/100
		k := MustFromFloat(x, 20)
		found := false
		for _, p := range paths {
			if k.HasPrefix(p) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("key %v (x=%v) not covered", k, x)
		}
	}
	for _, p := range paths {
		for _, q := range paths {
			if p != q && p.IsPrefixOf(q) {
				t.Errorf("cover not minimal: %q prefix of %q", p, q)
			}
		}
	}
}

func TestRangePathsUnbounded(t *testing.T) {
	r := RangeFrom(MustFromFloat(0.5, 8))
	paths := r.Paths(4)
	// The path "1" alone covers [0.5,1).
	if len(paths) != 1 || paths[0] != "1" {
		t.Errorf("paths = %v, want [1]", paths)
	}
}

// TestRangeOverlapsPathBeyondFloatPrecision pins the comparison to the keys'
// 64 bits: [0 1^62 0, 0 1^63) lies wholly inside path 0, but its lower bound
// rounds to exactly 0.5 as a float64, which once made the path look disjoint
// and let a range query skip the sub-tree without reporting it incomplete.
func TestRangeOverlapsPathBeyondFloatPrecision(t *testing.T) {
	lo := MustFromString("0" + strings.Repeat("1", 62) + "0")
	hi := MustFromString("0" + strings.Repeat("1", 63))
	r := NewRange(lo, hi)
	if lo.Float() != 0.5 {
		t.Fatalf("lo.Float() = %v; the case needs a bound that rounds to 0.5", lo.Float())
	}
	for p, want := range map[Path]bool{"0": true, "01": true, "011": true, "1": false, "00": false} {
		if got := r.OverlapsPath(p); got != want {
			t.Errorf("OverlapsPath(%q) = %v, want %v", p, got, want)
		}
	}
	paths := r.Paths(64)
	if len(paths) == 0 {
		t.Fatal("Paths found no partition for a non-empty range")
	}
	for _, p := range paths {
		if !lo.HasPrefix(p) {
			t.Errorf("Paths returned %q, which does not hold the range's only key %v", p, lo)
		}
	}
	// The top of the key space: a bound of 1^64 is below 1.
	top := NewRange(MustFromString(strings.Repeat("1", 63)+"0"), MustFromString(strings.Repeat("1", 64)))
	if !top.OverlapsPath("1") || top.OverlapsPath("0") {
		t.Error("range at the top of the key space: wrong overlap with the root's children")
	}
	if got := top.Paths(64); len(got) != 1 || got[0] != Path(strings.Repeat("1", 63)+"0") {
		t.Errorf("Paths at the top of the key space = %v", got)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
