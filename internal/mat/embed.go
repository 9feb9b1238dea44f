package mat

import "fmt"

// Embedding rules (Fig. 9). MAT's core principle: a runtime reordering
// that feeds or follows an operation with a compile-time-known parameter
// can be applied to that parameter offline instead. Two canonical cases:
//
//   Permute(VecMul):  π(a ⊙ w) = a' ⊙ π(w) when a arrives as a' = π(a),
//                     or more usefully — defer π by handing the consumer
//                     π(w) and tagging the output layout.
//   Transpose(MatMul): (A @ B)ᵀ = Bᵀ @ Aᵀ, so a transpose after a matmul
//                     with constant A becomes a matmul with Aᵀ before.
//
// The compiler works with layout *tags*: every tensor carries the
// permutation relating its physical order to the logical one, ops
// propagate tags, and constants absorb tags at compile time. A tag that
// reaches an op with no constant to absorb it must be materialised as a
// runtime gather — MAT's fallback (automorphism, §V-E).

// EmbedIntoVecParam returns the reordered parameter w' = π(w) such that
// computing a ⊙ w' produces the same vector the runtime sequence
// "compute a ⊙ w then permute by π" would, for inputs already permuted
// by π: π(a) ⊙ π(w) = π(a ⊙ w).
func EmbedIntoVecParam(pi Permutation, w []uint64) []uint64 {
	return pi.ApplyNew(w)
}

// EmbedIntoMatRows permutes the rows of a constant rows×cols matrix so
// that its product against unchanged data emits permuted output:
// (P @ A) @ X = P @ (A @ X).
func EmbedIntoMatRows(pi Permutation, a []uint64, rows, cols int) ([]uint64, error) {
	if len(pi) != rows || len(a) != rows*cols {
		return nil, fmt.Errorf("mat: row embedding shape mismatch (perm %d, matrix %d×%d)", len(pi), rows, cols)
	}
	out := make([]uint64, len(a))
	for i, src := range pi {
		copy(out[i*cols:(i+1)*cols], a[src*cols:(src+1)*cols])
	}
	return out, nil
}

// EmbedIntoMatCols permutes the columns of a constant rows×cols matrix
// so that permuted input order is absorbed: (A @ Pᵀ) reads X in the
// order π delivered it.
func EmbedIntoMatCols(pi Permutation, a []uint64, rows, cols int) ([]uint64, error) {
	if len(pi) != cols || len(a) != rows*cols {
		return nil, fmt.Errorf("mat: column embedding shape mismatch (perm %d, matrix %d×%d)", len(pi), rows, cols)
	}
	out := make([]uint64, len(a))
	for i := 0; i < rows; i++ {
		for j, src := range pi {
			out[i*cols+j] = a[i*cols+src]
		}
	}
	return out, nil
}

// TransposeMat returns Aᵀ of a rows×cols row-major constant — the
// offline half of the (A@B)ᵀ = Bᵀ@Aᵀ rewrite.
func TransposeMat(a []uint64, rows, cols int) []uint64 {
	out := make([]uint64, len(a))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			out[j*rows+i] = a[i*cols+j]
		}
	}
	return out
}

// IsSymmetric reports whether a square matrix equals its transpose —
// the twiddle-factor symmetry ((TF_C)ᵀ = TF_C) that lets MAT swap
// multiplication order instead of materialising a transpose (§IV-B2a).
func IsSymmetric(a []uint64, n int) bool {
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if a[i*n+j] != a[j*n+i] {
				return false
			}
		}
	}
	return true
}
