package derand

import (
	"math/rand"
	"testing"

	"repro/internal/dynnet"
	"repro/internal/gf"
	"repro/internal/rlnc"
)

func TestWitnessArithmetic(t *testing.T) {
	// Witness space grows with n, k and the horizon.
	if WitnessBits(16, 16, 64) >= WitnessBits(32, 32, 64) {
		t.Error("witness bits must grow with n and k")
	}
	if WitnessBits(0, 5, 5) != 0 {
		t.Error("degenerate inputs should yield 0")
	}
	// Failure exponent grows with q.
	if FailureExponentBits(16, 2) >= FailureExponentBits(16, 1<<16) {
		t.Error("failure exponent must grow with q")
	}
}

func TestUnionBoundThreshold(t *testing.T) {
	const n, k, rounds = 32, 32, 256
	// GF(2) can never close the Theorem 6.1 union bound at this size.
	if UnionBoundHolds(n, k, rounds, 2, 1) {
		t.Error("union bound should fail at q=2")
	}
	// A field with lg q >= RequiredFieldBits closes it.
	need := RequiredFieldBits(n, k, rounds, 1)
	bigQ := uint64(1) << uint(need+1)
	if need+1 < 63 && !UnionBoundHolds(n, k, rounds, bigQ, 1) {
		t.Error("union bound should hold at the required field size")
	}
	// The required size is Omega(k log n) bits: quadratic total header.
	if need < float64(k) {
		t.Errorf("required field bits %.1f implausibly small for k=%d", need, k)
	}
}

// TestStallAdversaryStallsGF2MoreThanLargeField is the Theorem 6.1
// separation: the omniscient adversary finds a blocking message in
// roughly half the rounds over GF(2) but almost never over F_257.
func TestStallAdversaryStallsGF2MoreThanLargeField(t *testing.T) {
	const n, pe = 12, 4
	schedule := 12 * n

	_, stalls2, rounds2, err := RunOmniscientBroadcast(gf.GF2{}, n, pe, schedule, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, stallsBig, roundsBig, err := RunOmniscientBroadcast(gf.MustPrime(257), n, pe, schedule, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rounds2 == 0 || roundsBig == 0 {
		t.Fatal("adversary never needed a crossing edge")
	}
	frac2 := float64(stalls2) / float64(rounds2)
	fracBig := float64(stallsBig) / float64(roundsBig)
	if frac2 < 0.2 {
		t.Errorf("GF(2) stall fraction %.2f, expected ~0.5", frac2)
	}
	if fracBig > 0.2 {
		t.Errorf("F_257 stall fraction %.2f, expected near 0", fracBig)
	}
	if frac2 <= fracBig {
		t.Errorf("no separation: GF(2) %.2f vs F_257 %.2f", frac2, fracBig)
	}
}

// TestOmniscientSeparation is the Theorem 6.1 reproduction: against an
// omniscient adversary, GF(2) coding fails to complete in O(n) rounds
// (once a few nodes sense the target, a blocking message exists almost
// every round), while a field with q >> n completes on schedule.
func TestOmniscientSeparation(t *testing.T) {
	const n, pe = 10, 3
	schedule := 20 * n
	decoded2, _, _, err := RunOmniscientBroadcast(gf.GF2{}, n, pe, schedule, 2)
	if err != nil {
		t.Fatal(err)
	}
	if decoded2 {
		t.Error("GF(2) decoded against the omniscient adversary; expected a stall (Theorem 6.1)")
	}
	decodedBig, _, _, err := RunOmniscientBroadcast(gf.MustPrime(65537), n, pe, schedule, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !decodedBig {
		t.Error("F_65537 failed to decode against the omniscient adversary")
	}
}

func TestAdviceScheduleDeterministicAndInField(t *testing.T) {
	f := gf.MustPrime(65537)
	s1 := AdviceSchedule(f, 7)
	s2 := AdviceSchedule(f, 7)
	s3 := AdviceSchedule(f, 8)
	same, diff := true, false
	for node := 0; node < 4; node++ {
		for round := 0; round < 8; round++ {
			for row := 0; row < 4; row++ {
				a, b, c := s1(node, round, row), s2(node, round, row), s3(node, round, row)
				if a >= f.Q() {
					t.Fatalf("coefficient %d out of field", a)
				}
				if a != b {
					same = false
				}
				if a != c {
					diff = true
				}
			}
		}
	}
	if !same {
		t.Error("same seed produced different schedules")
	}
	if !diff {
		t.Error("different seeds produced identical schedules")
	}
}

// TestDeterministicScheduleDecodesAgainstStaller runs the Corollary 6.2
// deterministic algorithm (advice schedule, large field) against the
// omniscient staller and requires full decoding — randomness-free
// network coding in the regime the theorem promises.
func TestDeterministicScheduleDecodesAgainstStaller(t *testing.T) {
	f := gf.MustPrime(65537)
	const n, pe = 8, 3
	schedule := 16 * n
	mu := gf.NewVec(n)
	mu[0] = 1
	adv := NewStallAdversary(f, mu, 3)
	coeff := AdviceSchedule(f, 11)

	rng := rand.New(rand.NewSource(9))
	impls := make([]*rlnc.GBroadcastNode, n)
	for i := 0; i < n; i++ {
		payload := gf.RandomVec(f, pe, rng.Uint64)
		node := i
		impls[i] = rlnc.NewScheduledBroadcastNode(f, n, pe,
			[]rlnc.GCoded{rlnc.GEncode(f, i, n, payload)},
			func(round, row int) uint64 { return coeff(node, round, row) })
	}
	s := dynnet.NewSession(n, adv, dynnet.Config{})
	if err := dynnet.Run(s, impls, schedule); err != nil {
		t.Fatal(err)
	}
	for i, impl := range impls {
		if !impl.Span().CanDecode() {
			t.Errorf("node %d cannot decode (rank %d of %d)", i, impl.Span().Rank(), n)
		}
	}
}
