// Package bfs implements the breadth-first search of paper Algorithm 2:
// enumeration of canonical representatives of all equivalence classes of
// reversible functions of size at most k, storing for each representative
// one boundary gate of a minimal circuit in a linear-probing hash table.
//
// The search is generalized over an Alphabet — a finite set of involutive
// building blocks closed under wire relabeling. Instantiations:
//
//   - GateAlphabet: the paper's 32 NOT/CNOT/TOF/TOF4 gates (gate count);
//   - LinearAlphabet: the 16 NOT/CNOT gates (paper §4.3, Table 5);
//   - LayerAlphabet: the 103 sets of disjoint-support gates, so one BFS
//     level is one time step (the depth metric of paper §5);
//   - weighted costs per element (CostSearch) for the paper §5 gate-cost
//     variant.
package bfs

import (
	"fmt"
	"sort"

	"repro/internal/canon"
	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/perm"
)

// Element is one building block of a search alphabet: an involutive
// permutation with the gate sequence realizing it and an integer cost.
type Element struct {
	// P is the permutation computed by the element.
	P perm.Perm
	// Gates realizes P as library gates (one gate for gate alphabets, a
	// disjoint-support set for layer alphabets).
	Gates []gate.Gate
	// Cost is the element's contribution to the circuit cost metric; it
	// is 1 for unweighted searches.
	Cost int
}

// Name renders the element's gate sequence.
func (e Element) Name() string { return circuit.Circuit(e.Gates).String() }

// Alphabet is a finite involutive element set with precomputed
// conjugation tables. Alphabets closed under simultaneous input/output
// wire relabeling support the ÷48 canonical reduction; alphabets that
// are not closed (e.g. restricted-architecture gate sets, paper §5) can
// only be searched unreduced.
type Alphabet struct {
	elems []Element
	// conj[s][e] is the index of the element computing the conjugation of
	// element e by relabeling s; only populated when relabelable.
	conj [canon.SigmaCount][]uint16
	// relabelable records closure under wire relabeling.
	relabelable bool
	// maxCost caches the largest element cost.
	maxCost int
	// ops[span[i][0]:span[i][1]] are element i's gates, in circuit
	// order, as word operations (gateOp): the expansion's element
	// products without a general composition or inversion.
	ops  []gateOp
	span [][2]uint32
}

// gateOp is one library gate as two operations on a packed function
// (perm's nibble layout, paper §3.3). Both are a handful of word
// operations, against the 16-step loops of a general perm.Then and
// perm.Inverse.
//
//   - The value op maps f to f.Then(g): it flips bit t of every nibble
//     whose control bits are all set.
//   - The position op maps f to g.Then(f): it swaps the nibbles at
//     positions x and x|1<<t for every x with bit t clear and the
//     control bits set, one delta swap.
type gateOp struct {
	// ctrl is the gate's control mask in every nibble.
	ctrl uint64
	// swap marks the low nibble of every swapped pair; shift is the
	// pair's distance in bits, 4<<t.
	swap  uint64
	shift uint8
	// t is the target bit.
	t uint8
}

// nibbleLows has bit 0 of every nibble set.
const nibbleLows = 0x1111111111111111

func newGateOp(g gate.Gate) gateOp {
	t := uint(g.Target())
	c := uint64(g.Controls())
	op := gateOp{ctrl: c * nibbleLows, t: uint8(t), shift: uint8(4 << t)}
	for x := uint64(0); x < perm.Size; x++ {
		if x&(1<<t) == 0 && x&c == c {
			op.swap |= 0xF << (4 * x)
		}
	}
	return op
}

// value returns w.Then(g).
func (op gateOp) value(w uint64) uint64 {
	// A nibble of y is zero exactly where every control bit is set;
	// folding each nibble's bits into its bit 0 and inverting leaves
	// bit 0 set where the gate fires.
	y := ^w & op.ctrl
	y |= y >> 1
	y |= y >> 2
	return w ^ (^y&nibbleLows)<<op.t
}

// position returns g.Then(w).
func (op gateOp) position(w uint64) uint64 {
	d := (w>>op.shift ^ w) & op.swap
	return w ^ d ^ d<<op.shift
}

// then returns base.Then(P) for element i: its gates' value ops in
// circuit order.
func (a *Alphabet) then(base perm.Perm, i int) perm.Perm {
	w := uint64(base)
	sp := a.span[i]
	for _, op := range a.ops[sp[0]:sp[1]] {
		w = op.value(w)
	}
	return perm.Perm(w)
}

// inverseThen returns (base.Then(P))⁻¹ = P.Then(base⁻¹) for element
// i, given baseInv = base⁻¹: its gates' position ops on baseInv, last
// gate first (every element and gate is an involution).
func (a *Alphabet) inverseThen(baseInv perm.Perm, i int) perm.Perm {
	w := uint64(baseInv)
	sp := a.span[i]
	ops := a.ops[sp[0]:sp[1]]
	for j := len(ops) - 1; j >= 0; j-- {
		w = ops[j].position(w)
	}
	return perm.Perm(w)
}

// MaxElements bounds alphabet sizes so element indices pack into the
// 10-bit element field of the cost-carrying hash-table values (the
// all-ones pattern is the identity sentinel). The largest alphabet in
// use — the 103 depth layers — is an order of magnitude below the bound.
const MaxElements = 1<<10 - 1

// NewAlphabet validates the element set and builds the conjugation
// tables. Elements must compute distinct involutive non-identity
// permutations, have positive cost, and the set must be closed under wire
// relabeling.
func NewAlphabet(elems []Element) (*Alphabet, error) {
	if len(elems) == 0 {
		return nil, fmt.Errorf("bfs: empty alphabet")
	}
	if len(elems) > MaxElements {
		return nil, fmt.Errorf("bfs: alphabet has %d elements, limit %d", len(elems), MaxElements)
	}
	a := &Alphabet{elems: elems, span: make([][2]uint32, len(elems))}
	index := make(map[perm.Perm]int, len(elems))
	for i, e := range elems {
		if !e.P.IsValid() {
			return nil, fmt.Errorf("bfs: element %d is not a permutation", i)
		}
		if e.P == perm.Identity {
			return nil, fmt.Errorf("bfs: element %d is the identity", i)
		}
		if e.P.Then(e.P) != perm.Identity {
			return nil, fmt.Errorf("bfs: element %d (%s) is not an involution", i, e.Name())
		}
		if e.Cost < 1 {
			return nil, fmt.Errorf("bfs: element %d has cost %d, want ≥ 1", i, e.Cost)
		}
		if circuit.Circuit(e.Gates).Perm() != e.P {
			return nil, fmt.Errorf("bfs: element %d gate list does not realize its permutation", i)
		}
		a.span[i][0] = uint32(len(a.ops))
		for _, g := range e.Gates {
			a.ops = append(a.ops, newGateOp(g))
		}
		a.span[i][1] = uint32(len(a.ops))
		if prev, dup := index[e.P]; dup {
			return nil, fmt.Errorf("bfs: elements %d and %d compute the same permutation", prev, i)
		}
		index[e.P] = i
		if e.Cost > a.maxCost {
			a.maxCost = e.Cost
		}
	}
	a.relabelable = true
	for s := 0; s < canon.SigmaCount && a.relabelable; s++ {
		a.conj[s] = make([]uint16, len(elems))
		for i, e := range elems {
			ce := perm.Conjugate(e.P, canon.Shuffle(s))
			j, ok := index[ce]
			if !ok || elems[j].Cost != e.Cost {
				// Not closed under relabeling (or relabeling changes the
				// cost): the alphabet is still usable, but only for
				// unreduced searches (restricted architectures, §5).
				a.relabelable = false
				break
			}
			a.conj[s][i] = uint16(j)
		}
	}
	return a, nil
}

// Relabelable reports whether the alphabet is closed under wire
// relabeling (with costs preserved), the precondition for the canonical
// ÷48 reduction.
func (a *Alphabet) Relabelable() bool { return a.relabelable }

// MustNewAlphabet is NewAlphabet that panics on error, for the package's
// own statically-correct constructions.
func MustNewAlphabet(elems []Element) *Alphabet {
	a, err := NewAlphabet(elems)
	if err != nil {
		panic(err)
	}
	return a
}

// Len returns the number of elements.
func (a *Alphabet) Len() int { return len(a.elems) }

// Element returns the i-th element.
func (a *Alphabet) Element(i int) Element { return a.elems[i] }

// ConjugateElement returns the index of the element computing the
// conjugation of element i by relabeling s.
func (a *Alphabet) ConjugateElement(i, s int) int { return int(a.conj[s][i]) }

// MaxCost returns the largest element cost (1 for unweighted alphabets).
func (a *Alphabet) MaxCost() int { return a.maxCost }

// GateAlphabet returns the paper's alphabet: the 32 NOT/CNOT/TOF/TOF4
// gates, each of cost 1 (size metric). Element indices equal gate.Index.
func GateAlphabet() *Alphabet {
	elems := make([]Element, gate.Count)
	for i := range elems {
		g := gate.FromIndex(i)
		elems[i] = Element{P: g.Perm(), Gates: []gate.Gate{g}, Cost: 1}
	}
	return MustNewAlphabet(elems)
}

// WeightedGateAlphabet returns the 32 gates with per-gate costs from
// weigh (e.g. Gate.QuantumCost), the paper §5 gate-cost variant.
func WeightedGateAlphabet(weigh func(gate.Gate) int) (*Alphabet, error) {
	elems := make([]Element, gate.Count)
	for i := range elems {
		g := gate.FromIndex(i)
		elems[i] = Element{P: g.Perm(), Gates: []gate.Gate{g}, Cost: weigh(g)}
	}
	return NewAlphabet(elems)
}

// LinearAlphabet returns the 16 NOT and CNOT gates — the library whose
// circuits compute exactly the "linear reversible functions" of paper
// §4.3.
func LinearAlphabet() *Alphabet {
	var elems []Element
	for _, g := range gate.All() {
		if g.Kind() == gate.NOT || g.Kind() == gate.CNOT {
			elems = append(elems, Element{P: g.Perm(), Gates: []gate.Gate{g}, Cost: 1})
		}
	}
	return MustNewAlphabet(elems)
}

// LayerAlphabet returns all non-empty sets of gates with pairwise
// disjoint support — the alphabet in which one BFS level is one circuit
// time step. Paper §5: "To optimize depth, one needs to consider a
// different family of gates, where, for instance, sequence NOT(a)
// CNOT(b,c) is counted as a single gate." There are 103 such layers on
// four wires.
func LayerAlphabet() *Alphabet {
	var elems []Element
	all := gate.All()
	var build func(start int, used uint8, gates []gate.Gate)
	build = func(start int, used uint8, gates []gate.Gate) {
		if len(gates) > 0 {
			p := perm.Identity
			for _, g := range gates {
				p = p.Then(g.Perm())
			}
			elems = append(elems, Element{P: p, Gates: append([]gate.Gate(nil), gates...), Cost: 1})
		}
		for i := start; i < len(all); i++ {
			g := all[i]
			if used&g.Support() != 0 {
				continue
			}
			build(i+1, used|g.Support(), append(gates, g))
		}
	}
	build(0, 0, nil)
	sort.Slice(elems, func(i, j int) bool { return elems[i].P < elems[j].P })
	return MustNewAlphabet(elems)
}

// LNNAlphabet returns the linear-nearest-neighbour architecture gate set
// (paper §5: "extend the search to find optimal implementations in
// restricted architectures"): only gates whose support is a contiguous
// block of wires — 4 NOTs, 6 adjacent CNOTs, 6 three-wire TOFs, and 4
// TOF4s, 20 gates in all. The set is not closed under wire relabeling,
// so it must be searched unreduced.
func LNNAlphabet() *Alphabet {
	var elems []Element
	for _, g := range gate.All() {
		if !contiguous(g.Support()) {
			continue
		}
		elems = append(elems, Element{P: g.Perm(), Gates: []gate.Gate{g}, Cost: 1})
	}
	return MustNewAlphabet(elems)
}

// contiguous reports whether the set bits of a 4-bit mask form one
// unbroken run.
func contiguous(mask uint8) bool {
	if mask == 0 {
		return false
	}
	for mask&1 == 0 {
		mask >>= 1
	}
	return mask&(mask+1) == 0
}
