package autograd

// ForceHandedOverZeros sets every zero of every buffer Backward hands over
// (see handOff) to zero — pass math.Copysign(0, -1) for −0, or 0 for +0 —
// until the returned function is called, and counts the zeros it wrote in
// *written. Forced to +0 a hand-off gives exactly what adding the buffer
// into a Grad of zeros gave; forced to −0 it gives every zero the other
// sign. The hook is not synchronised: use it on tapes run one at a time.
func ForceHandedOverZeros(zero float64, written *int) (restore func()) {
	handedOver = func(buf []float64) {
		for i, v := range buf {
			if v == 0 {
				buf[i] = zero
				*written++
			}
		}
	}
	return func() { handedOver = nil }
}
