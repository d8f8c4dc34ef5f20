//go:build !amd64

package tensor

// useAVX is false off amd64: the Go tiles in matmul.go are the only path.
var useAVX = false

func rowsPairAVX(c, a, b *float64, k, n, ri, rp int) {
	panic("tensor: no AVX tile on this architecture")
}

func t2PairAVX(c, a, b *float64, k, n int) {
	panic("tensor: no AVX tile on this architecture")
}
