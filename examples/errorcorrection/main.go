// Errorcorrection works through the paper's §4.3 use case: linear
// reversible (NOT/CNOT) circuits, "the most complex part of error
// correcting circuits", whose efficiency governs quantum encoding and
// decoding.
//
// The example classifies functions as linear, synthesizes an encoding
// layer optimally over the restricted NOT/CNOT library, and reproduces
// the hardness profile of the 322,560-function space.
//
//	go run ./examples/errorcorrection
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/extbuild"
	"repro/internal/linear"
)

func main() {
	// A CSS-style parity-encoding layer: data on wire a, parity checks
	// onto wires b, c, d — plus a basis change mixing the checks, the
	// kind of layer stabilizer encoders are made of.
	//   x_b ← x_b ⊕ x_a, x_c ← x_c ⊕ x_a, x_d ← x_d ⊕ x_b ⊕ x_c
	encoder := linear.Affine{
		M: linear.Matrix{
			0b0001, // a' = a
			0b0011, // b' = a ⊕ b
			0b0101, // c' = a ⊕ c
			0b1110, // d' = b ⊕ c ⊕ d
		},
	}
	p := encoder.Perm()
	fmt.Printf("encoding layer: %v\n", p)
	fmt.Printf("is linear reversible: %v\n\n", repro.IsLinear(p))

	// Optimal synthesis over the restricted NOT/CNOT library: the search
	// machinery is the same, only the alphabet changes (paper §5 notes
	// the algorithm is metric-agnostic).
	synth, err := core.New(core.Config{K: 5, Alphabet: bfs.LinearAlphabet()})
	if err != nil {
		log.Fatal(err)
	}
	c, info, err := synth.SynthesizeInfo(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimal CNOT-count: %d\ncircuit: %v\n%s\n", info.Cost, c, repro.Render(c))

	// Decoding is the inverse circuit — same gate count, by symmetry.
	dec := c.Inverse()
	fmt.Printf("decoder (inverse, %d gates): %v\n\n", len(dec), dec)

	// The worst case: the paper's §4.3 example needs 10 gates, one of
	// exactly 138 such functions (Table 5's last row).
	worst := linear.WorstCase1043()
	wc, winfo, err := synth.SynthesizeInfo(worst.Perm())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("§4.3 worst-case linear function: optimal size %d (paper: 10)\n", winfo.Cost)
	fmt.Printf("circuit: %v\n", wc)

	// Table 5's shape in one line each: how many linear functions need n
	// gates (exact — the whole group is enumerated).
	fmt.Println("\nTable 5 (exact):")
	res, _, err := extbuild.BuildResult(extbuild.Options{Alphabet: bfs.LinearAlphabet(), K: 10, NoReduction: true})
	if err != nil {
		log.Fatal(err)
	}
	for size := 0; size <= 10; size++ {
		fmt.Printf("  %2d gates: %6d functions\n", size, res.ReducedCount(size))
	}
}
