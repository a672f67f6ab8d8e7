package population

import "sort"

// sparseVec is a sorted-coordinate sparse vector over a recipient space:
// parallel (index, value) slices with idx strictly ascending. The SDA
// estimators' round accumulators (the classic conditional sums, the
// least-squares right-hand sides, the ML estimator's per-(a, n) egress
// counts) and the flow-correlation fingerprints accumulate into these
// instead of dense length-R arrays, so a million-recipient space costs
// each accumulator only its support — for an SDA target that is the
// recipients actually delivered in observed rounds, for a flow
// fingerprint the non-empty rate bins. The ML estimate itself is dense
// (estimator.go): it is refit from the accumulators, not accumulated.
//
// All values are exact: the estimator entries are event counts (integer-
// valued float64s, exact below 2^53), so sparse accumulation is not an
// approximation — every read agrees bit-for-bit with the dense array it
// replaces, with absent coordinates reading as exactly 0.
type sparseVec struct {
	idx []int32
	val []float64
}

// find locates index i: its position and whether it is present; when
// absent, the position is the insertion point keeping idx sorted.
func (v *sparseVec) find(i int32) (int, bool) {
	p := sort.Search(len(v.idx), func(k int) bool { return v.idx[k] >= i })
	return p, p < len(v.idx) && v.idx[p] == i
}

// get reads coordinate i (0 when absent).
func (v *sparseVec) get(i int32) float64 {
	if p, ok := v.find(i); ok {
		return v.val[p]
	}
	return 0
}

// add accumulates x into coordinate i, inserting it if absent. Inserts
// are O(support); once an accumulator's support has saturated (every
// recipient it will ever see has appeared), add is a binary search plus
// one in-place update and allocates nothing.
func (v *sparseVec) add(i int32, x float64) {
	p, ok := v.find(i)
	if ok {
		v.val[p] += x
		return
	}
	v.idx = append(v.idx, 0)
	v.val = append(v.val, 0)
	copy(v.idx[p+1:], v.idx[p:])
	copy(v.val[p+1:], v.val[p:])
	v.idx[p] = i
	v.val[p] = x
}

// nnz returns the support size.
func (v *sparseVec) nnz() int { return len(v.idx) }

// setPairs replaces the vector's contents with the given coordinate
// pairs (already validated: equal lengths, idx strictly ascending).
func (v *sparseVec) setPairs(idx []int32, val []float64) {
	v.idx = append(v.idx[:0], idx...)
	v.val = append(v.val[:0], val...)
}

// compress replaces the vector's contents with dense's non-zero
// coordinates.
func (v *sparseVec) compress(dense []float64) {
	v.idx = v.idx[:0]
	v.val = v.val[:0]
	for i, x := range dense {
		if x != 0 {
			v.idx = append(v.idx, int32(i))
			v.val = append(v.val, x)
		}
	}
}

// scatter materializes the vector into the dense slice (zeroing it
// first): the exact inverse of compress.
func (v *sparseVec) scatter(dense []float64) {
	for i := range dense {
		dense[i] = 0
	}
	for k, i := range v.idx {
		dense[i] = v.val[k]
	}
}
