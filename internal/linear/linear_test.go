package linear

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bfs"
	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/perm"
)

func randInvertible(rng *rand.Rand) Matrix {
	for {
		m := Matrix{uint8(rng.Intn(16)), uint8(rng.Intn(16)), uint8(rng.Intn(16)), uint8(rng.Intn(16))}
		if m.Invertible() {
			return m
		}
	}
}

func randAffine(rng *rand.Rand) Affine {
	return Affine{M: randInvertible(rng), C: uint8(rng.Intn(16))}
}

func TestGroupOrders(t *testing.T) {
	// |GL(4,2)| = 20160 and 322,560 affine maps — the paper's §4.3 count.
	n := 0
	ForEachInvertible(func(Matrix) bool { n++; return true })
	if n != NumInvertible {
		t.Fatalf("invertible matrices: %d, want %d", n, NumInvertible)
	}
	total := 0
	ForEachAffine(func(Affine) bool { total++; return true })
	if total != NumAffine {
		t.Fatalf("affine functions: %d, want %d", total, NumAffine)
	}
}

func TestMulVecAgainstMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		m, n := randInvertible(rng), randInvertible(rng)
		x := uint8(rng.Intn(16))
		if m.Mul(n).MulVec(x) != m.MulVec(n.MulVec(x)) {
			t.Fatalf("(m·n)x ≠ m(n x) for m=%v n=%v x=%d", m, n, x)
		}
	}
}

func TestIdentityMatrix(t *testing.T) {
	id := IdentityMatrix()
	for x := uint8(0); x < 16; x++ {
		if id.MulVec(x) != x {
			t.Fatalf("identity maps %d to %d", x, id.MulVec(x))
		}
	}
	if !id.Invertible() || id.Rank() != 4 {
		t.Fatal("identity not invertible")
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		m := randInvertible(rng)
		inv, ok := m.Inverse()
		if !ok {
			t.Fatalf("invertible matrix %v reported singular", m)
		}
		if m.Mul(inv) != IdentityMatrix() || inv.Mul(m) != IdentityMatrix() {
			t.Fatalf("inverse of %v is wrong: %v", m, inv)
		}
	}
	// Singular matrices must be rejected.
	if _, ok := (Matrix{1, 1, 2, 4}).Inverse(); ok {
		t.Fatal("singular matrix inverted")
	}
	if (Matrix{0, 0, 0, 0}).Rank() != 0 {
		t.Fatal("zero matrix rank != 0")
	}
	if (Matrix{1, 1, 2, 4}).Rank() != 3 {
		t.Fatalf("rank = %d, want 3", (Matrix{1, 1, 2, 4}).Rank())
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		m := randInvertible(rng)
		if m.Transpose().Transpose() != m {
			t.Fatalf("transpose not an involution for %v", m)
		}
	}
}

func TestAffineComposeMatchesPerm(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		a, b := randAffine(rng), randAffine(rng)
		if a.Compose(b).Perm() != a.Perm().Then(b.Perm()) {
			t.Fatalf("Compose disagrees with permutation Then for %+v, %+v", a, b)
		}
	}
}

func TestAffineInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		a := randAffine(rng)
		inv, ok := a.Inverse()
		if !ok {
			t.Fatalf("affine inverse failed for %+v", a)
		}
		if a.Perm().Then(inv.Perm()) != perm.Identity {
			t.Fatalf("a∘a⁻¹ ≠ id for %+v", a)
		}
	}
}

func TestFromPermRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 300; trial++ {
		a := randAffine(rng)
		back, ok := FromPerm(a.Perm())
		if !ok {
			t.Fatalf("FromPerm rejected affine %+v", a)
		}
		if back != a {
			t.Fatalf("FromPerm(%+v.Perm()) = %+v", a, back)
		}
	}
}

func TestGateLinearity(t *testing.T) {
	for _, g := range gate.All() {
		want := g.Kind() == gate.NOT || g.Kind() == gate.CNOT
		if got := IsLinear(g.Perm()); got != want {
			t.Errorf("IsLinear(%v) = %v, want %v", g, got, want)
		}
	}
}

func TestLinearClosedUnderNOTCNOTCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	linearGates := []gate.Gate{}
	for _, g := range gate.All() {
		if g.Kind() == gate.NOT || g.Kind() == gate.CNOT {
			linearGates = append(linearGates, g)
		}
	}
	for trial := 0; trial < 200; trial++ {
		c := make(circuit.Circuit, rng.Intn(15))
		for i := range c {
			c[i] = linearGates[rng.Intn(len(linearGates))]
		}
		if !IsLinear(c.Perm()) {
			t.Fatalf("NOT/CNOT circuit %v computes a non-linear function", c)
		}
	}
}

func TestWorstCaseExample(t *testing.T) {
	// Paper §4.3: the mapping a,b,c,d ↦ b⊕1, a⊕c⊕1, d⊕1, a is one of the
	// 138 hardest linear functions (10 gates), with the published optimal
	// circuit below. This test pins the wire conventions end to end.
	f := WorstCase1043()
	p := f.Perm()
	published := circuit.MustParse(
		"CNOT(b,a) CNOT(c,d) CNOT(d,b) NOT(d) CNOT(a,b) CNOT(d,c) CNOT(b,d) CNOT(d,a) NOT(d) CNOT(c,b)")
	if published.Perm() != p {
		t.Fatalf("published circuit computes %v, function is %v", published.Perm(), p)
	}
	if len(published) != 10 {
		t.Fatalf("published circuit has %d gates", len(published))
	}
	// Verify the size-10 claim exactly against the closed linear BFS.
	res, err := bfs.Search(bfs.LinearAlphabet(), 10, &bfs.Options{NoReduction: true})
	if err != nil {
		t.Fatal(err)
	}
	size, ok := res.CostOf(p)
	if !ok || size != 10 {
		t.Fatalf("linear-optimal size = %d,%v; want 10 (paper §4.3)", size, ok)
	}
}

func TestAffineEnumerationMatchesBFSCensus(t *testing.T) {
	// Every function reached by NOT/CNOT BFS is affine, and the BFS
	// reaches all of them: cross-validate the two enumerations.
	res, err := bfs.Search(bfs.LinearAlphabet(), 10, &bfs.Options{NoReduction: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalStored() != NumAffine {
		t.Fatalf("BFS reached %d functions, want %d", res.TotalStored(), NumAffine)
	}
	count := 0
	missing := 0
	ForEachAffine(func(a Affine) bool {
		count++
		if !res.Contains(a.Perm()) {
			missing++
		}
		return true
	})
	if missing != 0 {
		t.Fatalf("%d of %d affine functions missing from NOT/CNOT closure", missing, count)
	}
}

func TestQuickFromPermRejectsPerturbed(t *testing.T) {
	// Swapping two outputs of an affine bijection almost always breaks
	// affinity; FromPerm must never accept a function that disagrees with
	// its own reconstruction.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randAffine(rng)
		vals := a.Perm().Values()
		i, j := rng.Intn(16), rng.Intn(16)
		vals[i], vals[j] = vals[j], vals[i]
		p := perm.MustFromValues(vals)
		got, ok := FromPerm(p)
		if !ok {
			return true
		}
		return got.Perm() == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixString(t *testing.T) {
	if s := IdentityMatrix().String(); s != "1000/0100/0010/0001" {
		t.Fatalf("identity renders as %q", s)
	}
}

func BenchmarkFromPerm(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	ps := make([]perm.Perm, 64)
	for i := range ps {
		ps[i] = randAffine(rng).Perm()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromPerm(ps[i&63])
	}
}
