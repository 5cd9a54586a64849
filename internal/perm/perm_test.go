package perm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randPerm returns a uniformly random permutation using the given source.
func randPerm(rng *rand.Rand) Perm {
	var vals [16]uint8
	for i := range vals {
		vals[i] = uint8(i)
	}
	for i := 15; i > 0; i-- {
		j := rng.Intn(i + 1)
		vals[i], vals[j] = vals[j], vals[i]
	}
	return MustFromValues(vals)
}

// thenNaive is a reference composition via unpacked arrays.
func thenNaive(p, q Perm) Perm {
	pv, qv := p.Values(), q.Values()
	var out [16]uint8
	for i := 0; i < 16; i++ {
		out[i] = qv[pv[i]]
	}
	return MustFromValues(out)
}

// inverseNaive is a reference inversion via unpacked arrays.
func inverseNaive(p Perm) Perm {
	pv := p.Values()
	var out [16]uint8
	for i, v := range pv {
		out[v] = uint8(i)
	}
	return MustFromValues(out)
}

func TestIdentityConstant(t *testing.T) {
	for i := 0; i < 16; i++ {
		if got := Identity.Apply(i); got != i {
			t.Fatalf("Identity.Apply(%d) = %d", i, got)
		}
	}
	if !Identity.IsValid() || !Identity.IsIdentity() {
		t.Fatal("Identity constant is not recognized as the valid identity")
	}
}

func TestZeroValueInvalid(t *testing.T) {
	if Perm(0).IsValid() {
		t.Fatal("zero word must not be a valid permutation (hash sentinel)")
	}
}

func TestThenMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		p, q := randPerm(rng), randPerm(rng)
		if got, want := p.Then(q), thenNaive(p, q); got != want {
			t.Fatalf("Then mismatch: p=%v q=%v got=%v want=%v", p, q, got, want)
		}
	}
}

func TestThenAppliesLeftFirst(t *testing.T) {
	// p sends 0 -> 3; q sends 3 -> 7. p.Then(q) must send 0 -> 7.
	var pv, qv [16]uint8
	for i := range pv {
		pv[i], qv[i] = uint8(i), uint8(i)
	}
	pv[0], pv[3] = 3, 0
	qv[3], qv[7] = 7, 3
	p, q := MustFromValues(pv), MustFromValues(qv)
	if got := p.Then(q).Apply(0); got != 7 {
		t.Fatalf("p.Then(q)(0) = %d, want 7 (diagrammatic order)", got)
	}
	if got := q.Then(p).Apply(0); got == 7 {
		t.Fatalf("q.Then(p)(0) = 7; composition must not be commutative here")
	}
}

func TestInverseMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		p := randPerm(rng)
		if got, want := p.Inverse(), inverseNaive(p); got != want {
			t.Fatalf("Inverse mismatch: p=%v got=%v want=%v", p, got, want)
		}
	}
}

func TestGroupLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		p, q, r := randPerm(rng), randPerm(rng), randPerm(rng)
		if p.Then(Identity) != p || Identity.Then(p) != p {
			t.Fatalf("identity law failed for %v", p)
		}
		if p.Then(p.Inverse()) != Identity || p.Inverse().Then(p) != Identity {
			t.Fatalf("inverse law failed for %v", p)
		}
		if p.Then(q).Then(r) != p.Then(q.Then(r)) {
			t.Fatalf("associativity failed for %v %v %v", p, q, r)
		}
		if p.Then(q).Inverse() != q.Inverse().Then(p.Inverse()) {
			t.Fatalf("anti-homomorphism of inverse failed for %v %v", p, q)
		}
	}
}

func TestValuesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 1000; trial++ {
		p := randPerm(rng)
		back, err := FromValues(p.Values())
		if err != nil {
			t.Fatalf("FromValues(%v.Values()): %v", p, err)
		}
		if back != p {
			t.Fatalf("round trip changed %v into %v", p, back)
		}
	}
}

func TestFromValuesRejectsInvalid(t *testing.T) {
	var dup [16]uint8
	for i := range dup {
		dup[i] = uint8(i)
	}
	dup[5] = 4 // duplicate 4, missing 5
	if _, err := FromValues(dup); err == nil {
		t.Fatal("FromValues accepted a duplicate value")
	}
	var big [16]uint8
	big[3] = 16
	if _, err := FromValues(big); err == nil {
		t.Fatal("FromValues accepted an out-of-range value")
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		p := randPerm(rng)
		back, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", p.String(), err)
		}
		if back != p {
			t.Fatalf("parse round trip changed %v into %v", p, back)
		}
	}
}

func TestParsePaperSpec(t *testing.T) {
	// hwb4 from the paper's Table 6.
	p, err := Parse("[0,2,4,12,8,5,9,11,1,6,10,13,3,14,7,15]")
	if err != nil {
		t.Fatal(err)
	}
	if p.Apply(3) != 12 || p.Apply(15) != 15 {
		t.Fatalf("parsed spec applies incorrectly: %v", p)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"0,1,2,3",
		"[0,1,2]",
		"[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,x]",
		"[0,0,2,3,4,5,6,7,8,9,10,11,12,13,14,15]",
		"[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,16]",
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c)
		}
	}
}

// kernels pairs each adjacent-transposition kernel with the wire
// relabeling it conjugates by.
var kernels = []struct {
	name  string
	sigma [4]uint8
	conj  func(Perm) Perm
}{
	{"Conj01", [4]uint8{1, 0, 2, 3}, Perm.Conj01},
	{"Conj12", [4]uint8{0, 2, 1, 3}, Perm.Conj12},
	{"Conj23", [4]uint8{0, 1, 3, 2}, Perm.Conj23},
}

func TestConjugationKernelsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, k := range kernels {
		g, err := WireShuffle(k.sigma)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 500; trial++ {
			p := randPerm(rng)
			want := Conjugate(p, g)
			if got := k.conj(p); got != want {
				t.Fatalf("%s mismatch on %v: got %v want %v", k.name, p, got, want)
			}
		}
	}
}

func TestConjugationIsInvolutionPerKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		p := randPerm(rng)
		for _, k := range kernels {
			if k.conj(k.conj(p)) != p {
				t.Fatalf("%s is not an involution on %v", k.name, p)
			}
		}
	}
}

func TestConjugationCommutesWithInverse(t *testing.T) {
	// (g⁻¹ f g)⁻¹ = g⁻¹ f⁻¹ g — the identity the paper relies on in §3.2.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 300; trial++ {
		p := randPerm(rng)
		g := randPerm(rng)
		if Conjugate(p, g).Inverse() != Conjugate(p.Inverse(), g) {
			t.Fatalf("conjugation/inversion do not commute for %v, %v", p, g)
		}
	}
}

func TestConjugationDistributesOverThen(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		p, q, g := randPerm(rng), randPerm(rng), randPerm(rng)
		lhs := Conjugate(p.Then(q), g)
		rhs := Conjugate(p, g).Then(Conjugate(q, g))
		if lhs != rhs {
			t.Fatalf("conjugation does not distribute over Then for %v, %v, %v", p, q, g)
		}
	}
}

func TestConjugationPreservesCycleStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 200; trial++ {
		p, g := randPerm(rng), randPerm(rng)
		a := p.CycleStructure()
		b := Conjugate(p, g).CycleStructure()
		if len(a) != len(b) {
			t.Fatalf("cycle count changed under conjugation: %v vs %v", a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("cycle structure changed under conjugation: %v vs %v", a, b)
			}
		}
	}
}

func TestWireShuffleRejectsInvalid(t *testing.T) {
	if _, err := WireShuffle([4]uint8{0, 1, 2, 4}); err == nil {
		t.Error("WireShuffle accepted out-of-range wire")
	}
	if _, err := WireShuffle([4]uint8{0, 1, 2, 2}); err == nil {
		t.Error("WireShuffle accepted a duplicate wire")
	}
}

func TestWireShuffleComposition(t *testing.T) {
	// gσ of a product relabeling equals the product of the shuffles.
	a, _ := WireShuffle([4]uint8{1, 0, 2, 3})
	b, _ := WireShuffle([4]uint8{0, 2, 1, 3})
	// Applying relabeling "swap wires 0,1" then "swap wires 1,2" is the
	// relabeling computed by composing the index maps.
	var composed [4]uint8
	sa := [4]uint8{1, 0, 2, 3}
	sb := [4]uint8{0, 2, 1, 3}
	for i := range composed {
		composed[i] = sa[sb[i]]
	}
	c, _ := WireShuffle(composed)
	if a.Then(b) != c && b.Then(a) != c {
		t.Fatalf("wire shuffle of composed relabeling matches neither order: a·b=%v b·a=%v c=%v",
			a.Then(b), b.Then(a), c)
	}
}

func TestParity(t *testing.T) {
	if !Identity.Parity() {
		t.Fatal("identity must be even")
	}
	// A single transposition is odd.
	var vals [16]uint8
	for i := range vals {
		vals[i] = uint8(i)
	}
	vals[0], vals[1] = 1, 0
	if MustFromValues(vals).Parity() {
		t.Fatal("transposition must be odd")
	}
	// Parity is a homomorphism: sign(pq) = sign(p)sign(q).
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		p, q := randPerm(rng), randPerm(rng)
		if p.Then(q).Parity() != (p.Parity() == q.Parity()) {
			t.Fatalf("parity is not multiplicative for %v, %v", p, q)
		}
	}
}

func TestFixedPoints(t *testing.T) {
	if got := Identity.FixedPoints(); got != 16 {
		t.Fatalf("identity has %d fixed points, want 16", got)
	}
	var vals [16]uint8
	for i := range vals {
		vals[i] = uint8(i)
	}
	vals[2], vals[9] = 9, 2
	if got := MustFromValues(vals).FixedPoints(); got != 14 {
		t.Fatalf("transposition has %d fixed points, want 14", got)
	}
}

func TestQuickInverseInvolution(t *testing.T) {
	f := func(seed int64) bool {
		p := randPerm(rand.New(rand.NewSource(seed)))
		return p.Inverse().Inverse() == p && p.Inverse().IsValid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickThenPreservesValidity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, q := randPerm(rng), randPerm(rng)
		return p.Then(q).IsValid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickApplyAgreesWithThen(t *testing.T) {
	f := func(seed int64, x uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p, q := randPerm(rng), randPerm(rng)
		v := int(x % 16)
		return p.Then(q).Apply(v) == q.Apply(p.Apply(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkThenPacked(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	p, q := randPerm(rng), randPerm(rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p = p.Then(q)
	}
	_ = p
}

func BenchmarkThenNaive(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	p, q := randPerm(rng), randPerm(rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p = thenNaive(p, q)
	}
	_ = p
}

func BenchmarkInversePacked(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	p := randPerm(rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p = p.Inverse()
	}
	_ = p
}

// BenchmarkConjugateKernel chains all three kernels per op.
func BenchmarkConjugateKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(44))
	p := randPerm(rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p = p.Conj01().Conj12().Conj23()
	}
	_ = p
}
