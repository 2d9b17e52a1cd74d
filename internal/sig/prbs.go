package sig

import "fmt"

// PRBS is a maximal-length linear feedback shift register pseudo-random bit
// sequence generator. Supported orders follow the ITU-T naming: PRBS7,
// PRBS9, PRBS15, PRBS23 and PRBS31, each using its canonical feedback taps.
type PRBS struct {
	state uint32
	mask  uint32
	taps  [2]uint // feedback bit positions (1-based from LSB of the register)
	order uint
}

// prbsTaps maps the register order to its canonical (x^n + x^m + 1) taps.
var prbsTaps = map[uint][2]uint{
	7:  {7, 6},
	9:  {9, 5},
	15: {15, 14},
	23: {23, 18},
	31: {31, 28},
}

// NewPRBS creates a generator of the given order seeded with a non-zero
// register value. The all-ones register is used when seed (mod 2^order) is 0.
func NewPRBS(order uint, seed uint32) (*PRBS, error) {
	taps, ok := prbsTaps[order]
	if !ok {
		return nil, fmt.Errorf("sig: PRBS order %d unsupported (7, 9, 15, 23, 31)", order)
	}
	mask := uint32(1)<<order - 1
	s := seed & mask
	if s == 0 {
		s = mask
	}
	return &PRBS{state: s, mask: mask, taps: taps, order: order}, nil
}

// Next returns the next bit of the sequence. The generator is a Fibonacci
// LFSR in left-shift form: the emitted bit is the feedback
// state[taps0-1] XOR state[taps1-1], shifted into the register LSB.
func (p *PRBS) Next() int {
	b1 := (p.state >> (p.taps[0] - 1)) & 1
	b2 := (p.state >> (p.taps[1] - 1)) & 1
	fb := b1 ^ b2
	p.state = ((p.state << 1) | fb) & p.mask
	return int(fb)
}

// Bits returns the next n bits.
func (p *PRBS) Bits(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = p.Next()
	}
	return out
}
