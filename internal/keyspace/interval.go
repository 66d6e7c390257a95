package keyspace

import "fmt"

// Interval is a half-open sub-interval [Lo, Hi) of the unit key space.
type Interval struct {
	Lo, Hi float64
}

// Unit is the full key space [0,1).
var Unit = Interval{Lo: 0, Hi: 1}

// Contains reports whether x lies inside the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x < iv.Hi }

// ContainsKey reports whether the key's numeric value lies inside the
// interval.
func (iv Interval) ContainsKey(k Key) bool { return iv.Contains(k.Float()) }

// Width returns the measure Hi-Lo of the interval.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Mid returns the midpoint of the interval, i.e. the bisection point.
func (iv Interval) Mid() float64 { return iv.Lo + (iv.Hi-iv.Lo)/2 }

// Bisect splits the interval into its left and right halves.
func (iv Interval) Bisect() (left, right Interval) {
	m := iv.Mid()
	return Interval{Lo: iv.Lo, Hi: m}, Interval{Lo: m, Hi: iv.Hi}
}

// Overlaps reports whether two intervals share any point.
func (iv Interval) Overlaps(o Interval) bool { return iv.Lo < o.Hi && o.Lo < iv.Hi }

// Empty reports whether the interval contains no point.
func (iv Interval) Empty() bool { return iv.Hi <= iv.Lo }

// String renders the interval as "[lo,hi)".
func (iv Interval) String() string { return fmt.Sprintf("[%g,%g)", iv.Lo, iv.Hi) }

// Range is a half-open key range [Lo, Hi) used by range queries. Either
// bound may be omitted by using the zero Key for Lo and a nil-length
// sentinel produced by UnboundedHi for Hi.
type Range struct {
	Lo Key
	Hi Key
	// HiUnbounded marks the range as extending to the end of the key space.
	HiUnbounded bool
}

// NewRange builds a bounded range [lo, hi).
func NewRange(lo, hi Key) Range { return Range{Lo: lo, Hi: hi} }

// RangeFrom builds a range [lo, +inf).
func RangeFrom(lo Key) Range { return Range{Lo: lo, HiUnbounded: true} }

// ContainsKey reports whether the key is inside the range.
func (r Range) ContainsKey(k Key) bool {
	if k.Compare(r.Lo) < 0 {
		return false
	}
	if r.HiUnbounded {
		return true
	}
	return k.Compare(r.Hi) < 0
}

// OverlapsPath reports whether the range intersects the dyadic interval of
// the given partition path. This is what a peer uses to decide whether it is
// responsible for part of a range query. The comparison runs on the keys'
// 64-bit fractions, which float64 would round to 53 bits.
func (r Range) OverlapsPath(p Path) bool {
	lo, hi, top := p.bounds()
	return (top || r.Lo.Bits < hi) && (r.HiUnbounded || lo < r.Hi.Bits)
}

// Paths enumerates, up to maxDepth, the minimal set of partition paths whose
// union covers the range. It is used by range-query routing to fan out the
// query to all responsible partitions.
func (r Range) Paths(maxDepth int) []Path {
	var out []Path
	var walk func(p Path)
	walk = func(p Path) {
		if !r.OverlapsPath(p) {
			return
		}
		lo, hi, top := p.bounds()
		covered := r.Lo.Bits <= lo && (r.HiUnbounded || (!top && r.Hi.Bits >= hi))
		// Fully covered or at depth limit: emit the path itself.
		if covered || len(p) >= maxDepth {
			out = append(out, p)
			return
		}
		walk(p.Child(0))
		walk(p.Child(1))
	}
	walk(Root)
	return out
}

// bounds returns the path's dyadic interval [lo, hi) as 64-bit binary
// fractions, the scale of a key's left-aligned Bits; top reports that hi is
// 1, which 64 bits cannot hold. Paths deeper than 64 bits are cut to their
// first 64.
func (p Path) bounds() (lo, hi uint64, top bool) {
	n := min(len(p), 64)
	for i := 0; i < n; i++ {
		if p[i] == '1' {
			lo |= 1 << (63 - i)
		}
	}
	hi = lo + 1<<(64-n) // wraps to 0 exactly when the interval reaches 1
	return lo, hi, hi == 0
}
