//go:build !purego

package modarith

// AVX-512 twins of the element-wise kernels in vec.go (DESIGN.md §11).
// Each covers len(dst) elements, a multiple of 8, and writes fully
// reduced outputs; dst may alias any input.

// addModAVX512 sets dst[k] = (a[k] + b[k]) mod q.
//
//go:noescape
func addModAVX512(dst, a, b []uint64, q uint64)

// subModAVX512 sets dst[k] = (a[k] − b[k]) mod q.
//
//go:noescape
func subModAVX512(dst, a, b []uint64, q uint64)

// mulModAVX512 sets dst[k] = a[k]·b[k] mod r.q for residues below 2^32.
//
//go:noescape
func mulModAVX512(dst, a, b []uint64, r *WordReducer)

// scalarMulAVX512 sets dst[k] = a[k]·w mod q for residues below 2^32;
// w32 is the 32-bit Shoup quotient ⌊w·2^32/q⌋.
//
//go:noescape
func scalarMulAVX512(dst, a []uint64, w, w32, q uint64)

// subScaleAVX512 sets dst[k] = (a[k] − b[k])·w mod q for q < 2^31; w32
// is the 32-bit Shoup quotient of w.
//
//go:noescape
func subScaleAVX512(dst, a, b []uint64, w, w32, q uint64)

// centerAVX512 sets dst[k] to the centred lift of a[k] mod p, reduced
// mod r.q: a[k] when a[k] ≤ half = ⌊p/2⌋, else −(p − a[k]).
//
//go:noescape
func centerAVX512(dst, a []uint64, p, half uint64, r *WordReducer)
