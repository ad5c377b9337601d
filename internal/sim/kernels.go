// Branch-free amplitude-sweep kernels.
//
// Every gate on an n-qubit statevector touches a structured subset of the
// 2^n amplitudes. A full scan visits all 2^n indices and skips the ones
// outside the subset with data-dependent branches; the kernels here
// instead iterate a compact counter over exactly the subset and reconstruct
// each amplitude index by re-inserting the fixed bits (the "expand" trick
// from table-driven bit-parallel kernels). That removes the skip branches
// and shrinks the iteration count by 2^k for a gate with k fixed bits — a
// CX sweeps 2^(n-2) pairs instead of scanning 2^n indices.
//
// The sweeps themselves are shaped for the cache and the pipeline rather
// than for brevity:
//
//   - mat2Range decomposes the compact range into runs of contiguous
//     amplitude indices (a run per fixed high part of the counter) and
//     streams through each run four pairs per iteration, so the inner loop
//     is pure sequential loads/stores with no per-element index rebuild.
//   - The masked kernels (ctrlMat2Range, phaseRange, swapRange) never call
//     expandIndex per element. When the compact counter increments, the
//     expanded index jumps by a delta that depends only on how many low
//     bits of the counter carried — TrailingZeros64(k+1) — so a tiny
//     precomputed stride table replaces the len(masks)-iteration rebuild.
//
// Each compact counter value addresses a disjoint set of amplitudes, so any
// sub-range [lo, hi) of the counter can run independently: the parallel
// fused-program path splits the range across workers and the result is
// bit-identical to a serial sweep for any worker count (the per-amplitude
// arithmetic is unchanged — no reductions are involved).
package sim

import (
	"math/bits"
	"runtime"
	"sort"

	"trios/internal/gatemat"
)

// clampWorkers resolves a requested worker count against the scheduler's
// actual parallelism: w <= 0 means "use GOMAXPROCS", and any request above
// GOMAXPROCS is clamped down to it. Goroutines beyond the scheduler width
// cannot run concurrently and only add dispatch overhead — in particular a
// GOMAXPROCS=1 process must take the serial fast path even when a config
// asks for Workers=4.
func clampWorkers(w int) int {
	m := runtime.GOMAXPROCS(0)
	if w <= 0 || w > m {
		return m
	}
	return w
}

// insertMasks precomputes, for a sorted list of bit positions, the low-bit
// masks used to expand a compact counter into a full amplitude index with
// zeros at those positions.
func insertMasks(bits []int) []uint64 {
	ms := make([]uint64, len(bits))
	for i, b := range bits {
		ms[i] = uint64(1)<<uint(b) - 1
	}
	return ms
}

// expandIndex inserts a zero bit at each masked position (masks ascending).
func expandIndex(k uint64, masks []uint64) uint64 {
	for _, low := range masks {
		k = (k&^low)<<1 | (k & low)
	}
	return k
}

// strideDeltas fills dst with the expanded-index strides of a compact
// counter: dst[t] = expandIndex(2^t) - expandIndex(2^t - 1). When the
// counter goes k -> k+1, exactly t = TrailingZeros64(k+1) low bits carry,
// and because expandIndex is a monotone bit scatter the expanded index
// advances by dst[t] — independent of the high bits of k. The table has
// one entry per possible carry length for a register of `total` amplitudes
// swept with len(masks) inserted bits, i.e. width+1 entries.
//
// The strides also survive OR-ed fixed bits (control masks, phase masks):
// those bits occupy exactly the inserted-zero positions, so adding a stride
// to expanded|fixed carries through to (expanded+stride)|fixed.
func strideDeltas(dst []uint64, total uint64, masks []uint64) []uint64 {
	width := bits.TrailingZeros64(total) - len(masks)
	for t := 0; t <= width; t++ {
		dst = append(dst, expandIndex(uint64(1)<<t, masks)-expandIndex(uint64(1)<<t-1, masks))
	}
	return dst
}

// mat2Range applies a 2x2 matrix to qubit q on the compact pair range
// [lo, hi): pair k maps to indices (i, i|bit) with the q-th bit re-inserted
// as zero. Pairs are visited in ascending index order, matching a full
// scan's order exactly.
func mat2Range(amp []complex128, m gatemat.Mat2, q int, lo, hi uint64) {
	if lo >= hi {
		return
	}
	m0, m1, m2, m3 := m[0], m[1], m[2], m[3]
	bit := uint64(1) << uint(q)
	if q == 0 {
		// Pair k is the adjacent amplitudes (2k, 2k+1): one contiguous
		// stream, four pairs per iteration plus a scalar tail.
		i, end := 2*lo, 2*hi
		for ; i+8 <= end; i += 8 {
			a0, b0 := amp[i], amp[i+1]
			amp[i] = m0*a0 + m1*b0
			amp[i+1] = m2*a0 + m3*b0
			a1, b1 := amp[i+2], amp[i+3]
			amp[i+2] = m0*a1 + m1*b1
			amp[i+3] = m2*a1 + m3*b1
			a2, b2 := amp[i+4], amp[i+5]
			amp[i+4] = m0*a2 + m1*b2
			amp[i+5] = m2*a2 + m3*b2
			a3, b3 := amp[i+6], amp[i+7]
			amp[i+6] = m0*a3 + m1*b3
			amp[i+7] = m2*a3 + m3*b3
		}
		for ; i < end; i += 2 {
			a0, b0 := amp[i], amp[i+1]
			amp[i] = m0*a0 + m1*b0
			amp[i+1] = m2*a0 + m3*b0
		}
		return
	}
	if q == 1 {
		// Runs are only two pairs long, so the generic run loop below would
		// spend more time on run-boundary math than on arithmetic. Instead
		// walk aligned 8-amplitude blocks directly: block m holds the pairs
		// (8m, 8m+2), (8m+1, 8m+3), (8m+4, 8m+6), (8m+5, 8m+7), i.e. two
		// full runs, with a two-pair prologue/epilogue when lo or hi is odd.
		k := lo
		if k&1 != 0 {
			i := (k&^1)<<1 | 1
			a0, b0 := amp[i], amp[i+2]
			amp[i] = m0*a0 + m1*b0
			amp[i+2] = m2*a0 + m3*b0
			k++
		}
		for ; k+4 <= hi; k += 4 {
			i := k << 1
			a0, b0 := amp[i], amp[i+2]
			amp[i] = m0*a0 + m1*b0
			amp[i+2] = m2*a0 + m3*b0
			a1, b1 := amp[i+1], amp[i+3]
			amp[i+1] = m0*a1 + m1*b1
			amp[i+3] = m2*a1 + m3*b1
			a2, b2 := amp[i+4], amp[i+6]
			amp[i+4] = m0*a2 + m1*b2
			amp[i+6] = m2*a2 + m3*b2
			a3, b3 := amp[i+5], amp[i+7]
			amp[i+5] = m0*a3 + m1*b3
			amp[i+7] = m2*a3 + m3*b3
		}
		for ; k < hi; k++ {
			i := (k&^1)<<1 | (k & 1)
			a0, b0 := amp[i], amp[i+2]
			amp[i] = m0*a0 + m1*b0
			amp[i+2] = m2*a0 + m3*b0
		}
		return
	}
	// For q > 1 the counter walks runs of 2^q consecutive pairs: while the
	// high part of k is fixed, i and j = i|bit are both contiguous streams.
	// A run ends when the low q bits of k roll over, at (k|low)+1.
	low := bit - 1
	for k := lo; k < hi; {
		end := (k | low) + 1
		if end > hi {
			end = hi
		}
		i := (k&^low)<<1 | (k & low)
		j := i | bit
		rem := end - k
		k = end
		for ; rem >= 4; rem -= 4 {
			a0, b0 := amp[i], amp[j]
			amp[i] = m0*a0 + m1*b0
			amp[j] = m2*a0 + m3*b0
			a1, b1 := amp[i+1], amp[j+1]
			amp[i+1] = m0*a1 + m1*b1
			amp[j+1] = m2*a1 + m3*b1
			a2, b2 := amp[i+2], amp[j+2]
			amp[i+2] = m0*a2 + m1*b2
			amp[j+2] = m2*a2 + m3*b2
			a3, b3 := amp[i+3], amp[j+3]
			amp[i+3] = m0*a3 + m1*b3
			amp[j+3] = m2*a3 + m3*b3
			i += 4
			j += 4
		}
		for ; rem > 0; rem-- {
			a0, b0 := amp[i], amp[j]
			amp[i] = m0*a0 + m1*b0
			amp[j] = m2*a0 + m3*b0
			i++
			j++
		}
	}
}

// ctrlMat2Range applies a 2x2 matrix to the target qubit on the subspace
// where every control bit is 1, over the compact range [lo, hi). masks are
// the insert masks for the sorted control+target bit positions, cmask the
// OR of control bits, and tbit the target bit. The expanded index is
// carried across iterations via the stride table instead of being rebuilt
// per element.
func ctrlMat2Range(amp []complex128, m gatemat.Mat2, masks []uint64, cmask, tbit uint64, lo, hi uint64) {
	if lo >= hi {
		return
	}
	m0, m1, m2, m3 := m[0], m[1], m[2], m[3]
	var dbuf [MaxQubits + 1]uint64
	d := strideDeltas(dbuf[:0], uint64(len(amp)), masks)
	if len(masks) == 2 && masks[0] >= 3 {
		// Single-control gate whose lower fixed bit sits at position >= 2:
		// the compact counter walks runs of masks[0]+1 >= 4 consecutive
		// expanded indices, so stream each run contiguously (as mat2Range
		// does) instead of paying the serial TrailingZeros stride chain per
		// element. Crossing a run boundary advances the expanded index by
		// the stride of the carry that ended the run.
		low := masks[0]
		i := expandIndex(lo, masks) | cmask
		for k := lo; k < hi; {
			end := (k | low) + 1
			if end > hi {
				end = hi
			}
			rem := end - k
			k = end
			j := i | tbit
			for ; rem >= 4; rem -= 4 {
				a0, b0 := amp[i], amp[j]
				amp[i] = m0*a0 + m1*b0
				amp[j] = m2*a0 + m3*b0
				a1, b1 := amp[i+1], amp[j+1]
				amp[i+1] = m0*a1 + m1*b1
				amp[j+1] = m2*a1 + m3*b1
				a2, b2 := amp[i+2], amp[j+2]
				amp[i+2] = m0*a2 + m1*b2
				amp[j+2] = m2*a2 + m3*b2
				a3, b3 := amp[i+3], amp[j+3]
				amp[i+3] = m0*a3 + m1*b3
				amp[j+3] = m2*a3 + m3*b3
				i += 4
				j += 4
			}
			for ; rem > 0; rem-- {
				a0, b0 := amp[i], amp[j]
				amp[i] = m0*a0 + m1*b0
				amp[j] = m2*a0 + m3*b0
				i++
				j++
			}
			if k < hi {
				i += d[bits.TrailingZeros64(k)] - 1
			}
		}
		return
	}
	i := expandIndex(lo, masks) | cmask
	k := lo
	for ; k+4 <= hi; k += 4 {
		i0 := i
		i1 := i0 + d[bits.TrailingZeros64(k+1)]
		i2 := i1 + d[bits.TrailingZeros64(k+2)]
		i3 := i2 + d[bits.TrailingZeros64(k+3)]
		i = i3 + d[bits.TrailingZeros64(k+4)]
		j0, j1, j2, j3 := i0|tbit, i1|tbit, i2|tbit, i3|tbit
		a0, b0 := amp[i0], amp[j0]
		amp[i0] = m0*a0 + m1*b0
		amp[j0] = m2*a0 + m3*b0
		a1, b1 := amp[i1], amp[j1]
		amp[i1] = m0*a1 + m1*b1
		amp[j1] = m2*a1 + m3*b1
		a2, b2 := amp[i2], amp[j2]
		amp[i2] = m0*a2 + m1*b2
		amp[j2] = m2*a2 + m3*b2
		a3, b3 := amp[i3], amp[j3]
		amp[i3] = m0*a3 + m1*b3
		amp[j3] = m2*a3 + m3*b3
	}
	for ; k < hi; k++ {
		j := i | tbit
		a0, b0 := amp[i], amp[j]
		amp[i] = m0*a0 + m1*b0
		amp[j] = m2*a0 + m3*b0
		i += d[bits.TrailingZeros64(k+1)]
	}
}

// phaseRange multiplies by phase every amplitude whose index has all mask
// bits set, over the compact range [lo, hi). masks are the insert masks for
// the sorted mask bit positions.
func phaseRange(amp []complex128, phase complex128, masks []uint64, mask uint64, lo, hi uint64) {
	if lo >= hi {
		return
	}
	var dbuf [MaxQubits + 1]uint64
	d := strideDeltas(dbuf[:0], uint64(len(amp)), masks)
	if len(masks) == 2 && masks[0] >= 3 {
		// Two-bit phase (CZ) with runs of >= 4 contiguous indices: stream
		// each run instead of chasing the per-element stride chain.
		low := masks[0]
		i := expandIndex(lo, masks) | mask
		for k := lo; k < hi; {
			end := (k | low) + 1
			if end > hi {
				end = hi
			}
			rem := end - k
			k = end
			for ; rem >= 4; rem -= 4 {
				amp[i] *= phase
				amp[i+1] *= phase
				amp[i+2] *= phase
				amp[i+3] *= phase
				i += 4
			}
			for ; rem > 0; rem-- {
				amp[i] *= phase
				i++
			}
			if k < hi {
				i += d[bits.TrailingZeros64(k)] - 1
			}
		}
		return
	}
	i := expandIndex(lo, masks) | mask
	k := lo
	for ; k+4 <= hi; k += 4 {
		i0 := i
		i1 := i0 + d[bits.TrailingZeros64(k+1)]
		i2 := i1 + d[bits.TrailingZeros64(k+2)]
		i3 := i2 + d[bits.TrailingZeros64(k+3)]
		i = i3 + d[bits.TrailingZeros64(k+4)]
		amp[i0] *= phase
		amp[i1] *= phase
		amp[i2] *= phase
		amp[i3] *= phase
	}
	for ; k < hi; k++ {
		amp[i] *= phase
		i += d[bits.TrailingZeros64(k+1)]
	}
}

// swapRange exchanges qubits a and b over the compact range [lo, hi):
// compact index k maps to the pair (i with a-bit set, b-bit clear) and its
// mirror image. The expanded base index (both bits clear) is carried via
// the stride table.
func swapRange(amp []complex128, masks []uint64, abit, bbit uint64, lo, hi uint64) {
	if lo >= hi {
		return
	}
	var dbuf [MaxQubits + 1]uint64
	d := strideDeltas(dbuf[:0], uint64(len(amp)), masks)
	if masks[0] >= 3 {
		// Both swapped bits sit at position >= 2, so the compact counter
		// walks runs of >= 4 contiguous base indices: stream each run.
		low := masks[0]
		e := expandIndex(lo, masks)
		for k := lo; k < hi; {
			end := (k | low) + 1
			if end > hi {
				end = hi
			}
			rem := end - k
			k = end
			ia, ib := e|abit, e|bbit
			for ; rem >= 4; rem -= 4 {
				amp[ia], amp[ib] = amp[ib], amp[ia]
				amp[ia+1], amp[ib+1] = amp[ib+1], amp[ia+1]
				amp[ia+2], amp[ib+2] = amp[ib+2], amp[ia+2]
				amp[ia+3], amp[ib+3] = amp[ib+3], amp[ia+3]
				ia += 4
				ib += 4
			}
			for ; rem > 0; rem-- {
				amp[ia], amp[ib] = amp[ib], amp[ia]
				ia++
				ib++
			}
			if k < hi {
				e = ia - abit - 1 + d[bits.TrailingZeros64(k)]
			}
		}
		return
	}
	e := expandIndex(lo, masks)
	k := lo
	for ; k+4 <= hi; k += 4 {
		e0 := e
		e1 := e0 + d[bits.TrailingZeros64(k+1)]
		e2 := e1 + d[bits.TrailingZeros64(k+2)]
		e3 := e2 + d[bits.TrailingZeros64(k+3)]
		e = e3 + d[bits.TrailingZeros64(k+4)]
		amp[e0|abit], amp[e0|bbit] = amp[e0|bbit], amp[e0|abit]
		amp[e1|abit], amp[e1|bbit] = amp[e1|bbit], amp[e1|abit]
		amp[e2|abit], amp[e2|bbit] = amp[e2|bbit], amp[e2|abit]
		amp[e3|abit], amp[e3|bbit] = amp[e3|bbit], amp[e3|abit]
	}
	for ; k < hi; k++ {
		amp[e|abit], amp[e|bbit] = amp[e|bbit], amp[e|abit]
		e += d[bits.TrailingZeros64(k+1)]
	}
}

// mat4Range applies a 4x4 block matrix to the qubit pair encoded by masks
// (two insert masks; bl and bh are the lower and higher qubit bits) over the
// compact range [lo, hi). Compact index k expands to the base index e with
// both bits clear; the four amplitudes of block k sit at e, e|bl, e|bh and
// e|bh|bl, ordered by v = x_hi<<1 | x_lo to match the mat4 convention. The
// 16 multiply-adds per iteration dominate, so the expanded index is simply
// carried by the stride table with no further unrolling.
func mat4Range(amp []complex128, m *mat4, masks []uint64, bl, bh uint64, lo, hi uint64) {
	if lo >= hi {
		return
	}
	var dbuf [MaxQubits + 1]uint64
	d := strideDeltas(dbuf[:0], uint64(len(amp)), masks)
	m0, m1, m2, m3 := m[0], m[1], m[2], m[3]
	m4, m5, m6, m7 := m[4], m[5], m[6], m[7]
	m8, m9, m10, m11 := m[8], m[9], m[10], m[11]
	m12, m13, m14, m15 := m[12], m[13], m[14], m[15]
	if masks[0] >= 3 {
		// The lower block bit sits at position >= 2: the base index e walks
		// runs of >= 4 contiguous values, so stream each run and pay the
		// stride jump only at run boundaries.
		low := masks[0]
		e := expandIndex(lo, masks)
		for k := lo; k < hi; {
			end := (k | low) + 1
			if end > hi {
				end = hi
			}
			rem := end - k
			k = end
			i1 := e | bl
			i2 := e | bh
			i3 := i2 | bl
			for ; rem > 0; rem-- {
				a0, a1, a2, a3 := amp[e], amp[i1], amp[i2], amp[i3]
				amp[e] = m0*a0 + m1*a1 + m2*a2 + m3*a3
				amp[i1] = m4*a0 + m5*a1 + m6*a2 + m7*a3
				amp[i2] = m8*a0 + m9*a1 + m10*a2 + m11*a3
				amp[i3] = m12*a0 + m13*a1 + m14*a2 + m15*a3
				e++
				i1++
				i2++
				i3++
			}
			if k < hi {
				e += d[bits.TrailingZeros64(k)] - 1
			}
		}
		return
	}
	e := expandIndex(lo, masks)
	for k := lo; k < hi; k++ {
		i1 := e | bl
		i2 := e | bh
		i3 := i2 | bl
		a0, a1, a2, a3 := amp[e], amp[i1], amp[i2], amp[i3]
		amp[e] = m0*a0 + m1*a1 + m2*a2 + m3*a3
		amp[i1] = m4*a0 + m5*a1 + m6*a2 + m7*a3
		amp[i2] = m8*a0 + m9*a1 + m10*a2 + m11*a3
		amp[i3] = m12*a0 + m13*a1 + m14*a2 + m15*a3
		e += d[bits.TrailingZeros64(k+1)]
	}
}

// sortedBits returns the given qubit positions as a sorted copy (used by
// the amortized Fuse path; the per-gate hot path uses insertSorted on a
// stack buffer instead).
func sortedBits(qubits ...int) []int {
	bs := append([]int(nil), qubits...)
	sort.Ints(bs)
	return bs
}

// insertSorted appends q keeping bits ascending (insertion sort — gate
// arity is tiny). The slice's backing array is caller-provided, so the hot
// path allocates nothing.
func insertSorted(bits []int, q int) []int {
	bits = append(bits, q)
	for i := len(bits) - 1; i > 0 && bits[i-1] > bits[i]; i-- {
		bits[i-1], bits[i] = bits[i], bits[i-1]
	}
	return bits
}

// fillInsertMasks is insertMasks into a caller-provided buffer.
func fillInsertMasks(dst []uint64, bits []int) []uint64 {
	for i, b := range bits {
		dst[i] = uint64(1)<<uint(b) - 1
	}
	return dst
}

// bitMask ORs the bits at the given qubit positions.
func bitMask(qubits []int) uint64 {
	var m uint64
	for _, q := range qubits {
		m |= 1 << uint(q)
	}
	return m
}
