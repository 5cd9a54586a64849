package perm

import "fmt"

// This file implements simultaneous input/output wire relabeling (paper
// §3.2). A relabeling σ of the four wires induces a permutation gσ of the
// sixteen states; the relabeled function is the conjugate
//
//	fσ = gσ⁻¹ ∘ f ∘ gσ   (apply gσ, then f, then gσ⁻¹).
//
// Because every σ ∈ S₄ is a product of the adjacent transpositions (0 1),
// (1 2), (2 3), conjugation by an arbitrary σ reduces to a short chain of
// the three constant-time kernels below, each of which (a) permutes the
// sixteen nibble positions by the induced state map and (b) applies the
// same state map to every nibble value. Each kernel is 14 machine
// operations, matching the paper's conjugate01. Callers that walk S₄
// (package canon) call the kernels directly, in a fixed order, so no
// step pays for a dispatch on the transposition index.

// Conj01 conjugates p by the swap of wires 0 and 1 (bits 0 and 1 of the
// state). This is the paper's conjugate01 routine.
func (p Perm) Conj01() Perm {
	v := uint64(p)
	// Swap nibble positions whose indices differ by exchanging bits 0,1
	// (… positions 1 ↔ 2, 5 ↔ 6, 9 ↔ 10, 13 ↔ 14).
	v = (v & 0xF00FF00FF00FF00F) |
		((v & 0x00F000F000F000F0) << 4) |
		((v & 0x0F000F000F000F00) >> 4)
	// Swap bits 0,1 of every nibble value.
	return Perm((v & 0xCCCCCCCCCCCCCCCC) |
		((v & 0x1111111111111111) << 1) |
		((v & 0x2222222222222222) >> 1))
}

// Conj12 conjugates p by the swap of wires 1 and 2.
func (p Perm) Conj12() Perm {
	v := uint64(p)
	// Swap nibble positions whose indices differ by exchanging bits 1,2
	// (positions 2,3 ↔ 4,5 and 10,11 ↔ 12,13).
	v = (v & 0xFF0000FFFF0000FF) |
		((v & 0x0000FF000000FF00) << 8) |
		((v & 0x00FF000000FF0000) >> 8)
	// Swap bits 1,2 of every nibble value.
	return Perm((v & 0x9999999999999999) |
		((v & 0x2222222222222222) << 1) |
		((v & 0x4444444444444444) >> 1))
}

// Conj23 conjugates p by the swap of wires 2 and 3.
func (p Perm) Conj23() Perm {
	v := uint64(p)
	// Swap nibble positions whose indices differ by exchanging bits 2,3
	// (positions 4…7 ↔ 8…11).
	v = (v & 0xFFFF00000000FFFF) |
		((v & 0x00000000FFFF0000) << 16) |
		((v & 0x0000FFFF00000000) >> 16)
	// Swap bits 2,3 of every nibble value.
	return Perm((v & 0x3333333333333333) |
		((v & 0x4444444444444444) << 1) |
		((v & 0x8888888888888888) >> 1))
}

// WireShuffle returns the state permutation gσ induced by the wire
// relabeling σ: output bit i of gσ(x) is input bit σ[i] of x. σ must be a
// permutation of {0,1,2,3}.
//
// With this definition, conjugation by an adjacent transposition σ agrees
// with the corresponding fast kernel: Conjugate(f, WireShuffle({1,0,2,3}))
// equals f.Conj01(), and likewise for Conj12 and Conj23.
func WireShuffle(sigma [4]uint8) (Perm, error) {
	var seen uint8
	for _, w := range sigma {
		if w > 3 {
			return 0, fmt.Errorf("perm: wire index %d out of range [0,3]", w)
		}
		seen |= 1 << w
	}
	if seen != 0xF {
		return 0, fmt.Errorf("perm: wire relabeling %v is not a permutation of {0,1,2,3}", sigma)
	}
	var vals [16]uint8
	for x := 0; x < 16; x++ {
		y := 0
		for i := 0; i < 4; i++ {
			if x&(1<<sigma[i]) != 0 {
				y |= 1 << uint(i)
			}
		}
		vals[x] = uint8(y)
	}
	return FromValues(vals)
}

// Conjugate returns g⁻¹ ∘ f ∘ g: the function that applies g, then f, then
// g⁻¹. When g is a wire shuffle gσ this is the paper's relabeled function
// fσ. Conjugation distributes over Then while preserving order:
// Conjugate(p.Then(q), g) = Conjugate(p, g).Then(Conjugate(q, g)).
func Conjugate(f, g Perm) Perm {
	return g.Then(f).Then(g.Inverse())
}
