package tensor

// useAVX selects the assembly tiles in matmul_amd64.s over the Go ones. It is
// set once, from what the CPU reports; both produce the same bits.
var useAVX = cpuHasAVX()

// cpuHasAVX reports whether the CPU has AVX and the OS saves YMM state.
func cpuHasAVX() bool

// rowsPairAVX runs matmulRows's 2×4 tiles for one pair of rows, across every
// full 4-column block: c points at output row i, a at A's element (i,0) and b
// at B's row 0. k must be at least 1.
//
//go:noescape
func rowsPairAVX(c, a, b *float64, k, n, ri, rp int)

// t2PairAVX runs matmulT2Rows's 2×4 tiles for one pair of rows, across every
// full 4-column block, adding each dot product into c: c points at output
// row i, a at A's row i and b at B's row 0. k must be at least 1.
//
//go:noescape
func t2PairAVX(c, a, b *float64, k, n int)
