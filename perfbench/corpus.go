package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/benchfuncs"
	"repro/internal/bfs"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/perm"
	"repro/internal/tablesio"
)

// pool.txt holds one symmetry-class representative per line, with its
// minimal gate count: "cost spec". Workloads draw classes from it and
// turn each into a random member of its class (a wire relabelling,
// possibly inverted), which has the same cost. The pool was made once
// with --gen-pool; its costs are the reference every answer is checked
// against.
//
//go:embed pool.txt
var poolText []byte

// maxPoolCost is the costliest spec the pool holds.
const maxPoolCost = 11

// pool is the parsed pool: pool[c] lists the classes of cost c.
type pool [maxPoolCost + 1][]perm.Perm

func loadPool() (*pool, error) {
	var p pool
	sc := bufio.NewScanner(bytes.NewReader(poolText))
	for line := 1; sc.Scan(); line++ {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		if len(f) != 2 {
			return nil, fmt.Errorf("pool line %d: want \"cost spec\"", line)
		}
		c, err := strconv.Atoi(f[0])
		if err != nil || c < 1 || c > maxPoolCost {
			return nil, fmt.Errorf("pool line %d: bad cost %q", line, f[0])
		}
		v, err := strconv.ParseUint(f[1], 16, 64)
		if err != nil || !perm.Perm(v).IsValid() {
			return nil, fmt.Errorf("pool line %d: bad spec %q", line, f[1])
		}
		p[c] = append(p[c], perm.Perm(v))
	}
	return &p, sc.Err()
}

// member returns a seeded random member of f's symmetry class.
func member(rng *rand.Rand, f perm.Perm) perm.Perm {
	if rng.IntN(2) == 1 {
		f = f.Inverse()
	}
	return perm.Conjugate(f, canon.Shuffle(rng.IntN(canon.SigmaCount)))
}

// drawSpec returns an unused member of a class of cost c from p. A
// cost whose classes are used up is an error: falling through to
// another cost would change the op mix.
func drawSpec(rng *rand.Rand, used map[perm.Perm]bool, p *pool, c int) (spec, error) {
	f, err := distinct(rng, used, p[c])
	if err != nil {
		return spec{}, fmt.Errorf("spec pool exhausted at cost %d: %w", c, err)
	}
	return spec{f: f, cost: c}, nil
}

// spec is one operation's input and the reference it is checked
// against.
type spec struct {
	f    perm.Perm
	cost int
	name string // Table 6 row, empty for pool specs
}

// newRNG derives an independent stream from the run seed; stream
// separates the timed ops from the warm-up passes.
func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// distinct draws class members until it finds one not yet used in the
// run; after 1000 misses it takes the classes as used up.
func distinct(rng *rand.Rand, used map[perm.Perm]bool, classes []perm.Perm) (perm.Perm, error) {
	for try := 0; try < 1000; try++ {
		f := member(rng, classes[rng.IntN(len(classes))])
		if !used[f] {
			used[f] = true
			return f, nil
		}
	}
	return 0, fmt.Errorf("no unused spec left among %d classes", len(classes))
}

// poolSizes[c] is how many classes of cost c the pool holds: every
// class of cost 1 to 3, and a sample of the rest.
var poolSizes = [maxPoolCost + 1]int{0, 4, 33, 425, 2048, 2048, 2048, 768, 768, 384, 96, 48}

// genPool writes a fresh pool to path. Classes of cost ≤ 6 are a seeded
// sample of the pinned k=6 store's level lists. Classes of cost 7 to 11
// are those of random circuits of that many gates whose minimal cost,
// found by the sequential synthesizer over the same store, is exactly
// that.
func genPool(dir, path string, seed uint64) error {
	res, _, err := tablesio.LoadFile(storePath(dir, "k6.tables"), bfs.GateAlphabet(), nil)
	if err != nil {
		return err
	}
	synth, err := core.FromResult(res, 6)
	if err != nil {
		return err
	}
	synth.SetWorkers(1)
	rng := newRNG(seed, 99)
	var b strings.Builder
	for c := 1; c <= maxPoolCost; c++ {
		var classes []perm.Perm
		if c <= 6 {
			lv := res.Level(c)
			for _, i := range rng.Perm(lv.Len())[:poolSizes[c]] {
				classes = append(classes, lv.At(i))
			}
		} else {
			seen := map[perm.Perm]bool{}
			for tries := 0; len(classes) < poolSizes[c]; tries++ {
				if tries > 200*poolSizes[c] {
					return fmt.Errorf("cost %d: only %d classes found", c, len(classes))
				}
				f := perm.Identity
				for i := 0; i < c; i++ {
					f = f.Then(gate.FromIndex(rng.IntN(gate.Count)).Perm())
				}
				rep := canon.Rep(f)
				if seen[rep] {
					continue
				}
				seen[rep] = true
				got, err := synth.SizeCtx(context.Background(), rep)
				if err != nil {
					return err
				}
				if got == c {
					classes = append(classes, rep)
				}
			}
		}
		for _, f := range classes {
			fmt.Fprintf(&b, "%d %016x\n", c, uint64(f))
		}
		fmt.Fprintf(os.Stderr, "cost %d: %d classes\n", c, len(classes))
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// heavySeed seeds the streams of each workload's costliest specs (cost
// 10 and 11 in local-mix, 8 and 9 in fleet-mix, and the MITM specs of
// the warm-up passes). It does not depend on the run seed: a cost-11
// spec takes anywhere from 135 ms to 1.2 s depending on the spec and on
// which member of its class is asked, and a run holds only a few dozen
// of them, so drawing them per seed would move throughput and the tail
// by more than any bound worth setting. They are a fixed corpus, as
// Table 6 is; the seed draws everything else and the order of each
// round.
const heavySeed = 20101

// Round compositions. A round is a fixed multiset of op kinds in a
// seeded order, and a run does a fixed number of rounds (roundsFor), so
// every run does the same work whatever the host's speed.
var (
	// localDirect[c] seeded direct specs of cost c per round. Cost 1
	// is left out: its 32 functions would be used up after about as
	// many rounds.
	localDirect = map[int]int{2: 3, 3: 8, 4: 16, 5: 28, 6: 41}
	// localMITM[c] specs of cost c per round, seeded.
	localMITM = map[int]int{7: 16, 8: 8, 9: 4}
	// localHeavy[c] specs of cost c per round, from the fixed corpus,
	// plus one Table 6 row.
	localHeavy = map[int]int{10: 2, 11: 1}
)

// costs returns m's keys in ascending order.
func costs(m map[int]int) []int {
	var cs []int
	for c := range m {
		cs = append(cs, c)
	}
	sort.Ints(cs)
	return cs
}

// localGen generates local-mix rounds: distinct specs, so the result
// cache never hits.
type localGen struct {
	pool         *pool
	light, heavy *rand.Rand
	used         map[perm.Perm]bool
	table6       []benchfuncs.Benchmark
	rounds       int
}

func newLocalGen(p *pool, seed uint64) *localGen {
	g := &localGen{pool: p, light: newRNG(seed, 1), heavy: newRNG(heavySeed, 1), used: map[perm.Perm]bool{}}
	for _, b := range benchfuncs.All() {
		if b.OptimalSize <= maxPoolCost {
			g.table6 = append(g.table6, b)
		}
	}
	return g
}

// lightRound draws the seeded part of a round: direct specs from rng
// and MITM specs of cost 7 to 9 from mitm.
func (g *localGen) lightRound(rng, mitm *rand.Rand) ([]spec, error) {
	out, err := drawCosts(nil, rng, g.used, g.pool, localDirect)
	if err != nil {
		return nil, err
	}
	return drawCosts(out, mitm, g.used, g.pool, localMITM)
}

// localWarmRounds is the length of the set-up's warm-up pass, in light
// rounds.
const localWarmRounds = 12

// warmup returns the set-up's warm-up pass: light rounds from their
// own streams, disjoint from every timed op. Its direct specs are
// seeded; its MITM specs come from the fixed corpus, because a few
// cost-9 specs of 1 to 50 ms each would otherwise set setup_s.
func (g *localGen) warmup(seed uint64) ([]spec, error) {
	rng, mitm := newRNG(seed, 2), newRNG(heavySeed, 2)
	var out []spec
	for i := 0; i < localWarmRounds; i++ {
		r, err := g.lightRound(rng, mitm)
		if err != nil {
			return nil, err
		}
		out = append(out, r...)
	}
	return out, nil
}

// round returns the next timed round in its seeded order.
func (g *localGen) round() ([]spec, error) {
	out, err := g.lightRound(g.light, g.light)
	if err != nil {
		return nil, err
	}
	if out, err = drawCosts(out, g.heavy, g.used, g.pool, localHeavy); err != nil {
		return nil, err
	}
	// One Table 6 row per round, in turn: the printed spec on its first
	// turn, then other members of its class. A row whose class is used
	// up (hwb4's has 6 members, 4bit-7-8's 4) gives its turn to the next.
	for i := 0; i < len(g.table6); i++ {
		b := g.table6[(g.rounds+i)%len(g.table6)]
		f := b.Spec
		if g.used[f] {
			var err error
			if f, err = distinct(g.heavy, g.used, []perm.Perm{b.Spec}); err != nil {
				continue
			}
		}
		g.used[f] = true
		out = append(out, spec{f: f, cost: b.OptimalSize, name: b.Name})
		break
	}
	g.rounds++
	g.light.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}
