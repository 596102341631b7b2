package workload

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/storage"
)

// --- Video codec round trip ---

func TestIDCTInvertsDCT(t *testing.T) {
	var block, coef, back [64]float64
	state := uint64(3)
	for i := range block {
		state = splitmix64(state)
		block[i] = float64(state%512) - 256
	}
	dct8x8(&block, &coef)
	idct8x8(&coef, &back)
	for i := range block {
		if math.Abs(back[i]-block[i]) > 1e-9 {
			t.Fatalf("IDCT∘DCT not identity at %d: %g vs %g", i, back[i], block[i])
		}
	}
}

func TestEncodeDecodePSNR(t *testing.T) {
	task := &videoTask{seed: 9, frames: 1}
	frame := make([]float64, videoFrameW*videoFrameH)
	task.synthesizeFrame(frame, 0)

	// Finer quantization must reconstruct better.
	_, psnrFine, err := EncodeDecodeFrame(frame, 2)
	if err != nil {
		t.Fatal(err)
	}
	recon, psnrCoarse, err := EncodeDecodeFrame(frame, 40)
	if err != nil {
		t.Fatal(err)
	}
	if psnrFine <= psnrCoarse {
		t.Fatalf("finer quantization should score higher PSNR: %g vs %g", psnrFine, psnrCoarse)
	}
	if psnrFine < 35 {
		t.Fatalf("step-2 reconstruction unexpectedly poor: %g dB", psnrFine)
	}
	// Quantization error per coefficient ≤ step/2, so per-pixel error is
	// bounded (orthonormal transform): |err| ≤ step/2 · 8.
	for i := range frame {
		if math.Abs(recon[i]-frame[i]) > 40*4 {
			t.Fatalf("pixel %d error too large: %g", i, recon[i]-frame[i])
		}
	}
}

func TestEncodeDecodeValidation(t *testing.T) {
	if _, _, err := EncodeDecodeFrame(make([]float64, 10), 4); err == nil {
		t.Fatal("wrong frame size accepted")
	}
	if _, _, err := EncodeDecodeFrame(make([]float64, videoFrameW*videoFrameH), 0); err == nil {
		t.Fatal("zero step accepted")
	}
}

func TestPSNR(t *testing.T) {
	a := []float64{1, 2, 3}
	if !math.IsInf(PSNR(a, a, 255), 1) {
		t.Fatal("identical signals should give +Inf PSNR")
	}
	if !math.IsNaN(PSNR(a, a[:2], 255)) {
		t.Fatal("length mismatch should give NaN")
	}
	// MSE of 1 at peak 255 → 10·log10(255²) ≈ 48.13 dB.
	b := []float64{2, 3, 4}
	if got := PSNR(a, b, 255); math.Abs(got-48.13) > 0.01 {
		t.Fatalf("PSNR %g, want ≈48.13", got)
	}
}

// --- External sort ---

func TestExternalSortMatchesInMemory(t *testing.T) {
	store := storage.NewStore()
	state := uint64(17)
	rs := make([]record, 5000)
	for i := range rs {
		state = splitmix64(state)
		rs[i] = record{key: state % 997, payload: uint32(i)}
	}
	want := make([]record, len(rs))
	copy(want, rs)
	mergeSortRecords(want)

	got, err := ExternalSort(store, "spill", rs, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("index %d: got %+v want %+v (external sort must be stable)", i, got[i], want[i])
		}
	}
	if store.List() != 0 {
		t.Fatalf("spill runs not cleaned up: %d objects remain", store.List())
	}
}

func TestExternalSortEdges(t *testing.T) {
	store := storage.NewStore()
	if _, err := ExternalSort(nil, "x", nil, 4); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := ExternalSort(store, "x", nil, 0); err == nil {
		t.Fatal("zero run size accepted")
	}
	out, err := ExternalSort(store, "x", nil, 4)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty input: %v, %v", out, err)
	}
	// Single run (input smaller than runSize).
	rs := []record{{key: 3}, {key: 1}, {key: 2}}
	out, err = ExternalSort(store, "y", rs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].key != 1 || out[2].key != 3 {
		t.Fatalf("single-run sort wrong: %+v", out)
	}
	// Input must not be mutated.
	if rs[0].key != 3 {
		t.Fatal("ExternalSort mutated its input")
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	rs := []record{{key: 0, payload: 0}, {key: ^uint64(0), payload: ^uint32(0)}, {key: 42, payload: 7}}
	back, err := decodeRecords(encodeRecords(rs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs {
		if back[i] != rs[i] {
			t.Fatalf("round trip lost record %d: %+v vs %+v", i, back[i], rs[i])
		}
	}
	if _, err := decodeRecords(make([]byte, 13)); err == nil {
		t.Fatal("ragged data accepted")
	}
}

// Property: external sort equals stdlib sort for arbitrary inputs and run
// sizes.
func TestExternalSortProperty(t *testing.T) {
	f := func(keys []uint16, runRaw uint8) bool {
		store := storage.NewStore()
		rs := make([]record, len(keys))
		for i, k := range keys {
			rs[i] = record{key: uint64(k), payload: uint32(i)}
		}
		runSize := int(runRaw)%64 + 1
		got, err := ExternalSort(store, "p", rs, runSize)
		if err != nil {
			return false
		}
		want := make([]record, len(rs))
		copy(want, rs)
		sort.SliceStable(want, func(i, j int) bool { return want[i].key < want[j].key })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].key != want[i].key {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- Smith-Waterman traceback ---

func TestTracebackScoreMatchesLinearSpace(t *testing.T) {
	subst := substitutionMatrix(5)
	for trial := 0; trial < 20; trial++ {
		q := randomSequence(uint64(trial*2+1), 30+trial)
		s := randomSequence(uint64(trial*2+2), 40+trial)
		a, err := AlignLocalTraceback(q, s, subst)
		if err != nil {
			t.Fatal(err)
		}
		if want := alignLocal(q, s, subst); a.Score != want {
			t.Fatalf("trial %d: traceback score %d ≠ linear-space %d", trial, a.Score, want)
		}
	}
}

// rescoreAlignment recomputes an alignment's score from its columns.
func rescoreAlignment(a Alignment, subst *[alphabet][alphabet]int32) int32 {
	var score int32
	inGap := false
	for i := range a.AlignedQuery {
		qc, sc := a.AlignedQuery[i], a.AlignedSubject[i]
		switch {
		case qc == GapByte || sc == GapByte:
			if inGap {
				score -= swGapExtend
			} else {
				score -= swGapOpen
				inGap = true
			}
		default:
			score += subst[qc][sc]
			inGap = false
		}
	}
	return score
}

func TestTracebackAlignmentRescores(t *testing.T) {
	subst := substitutionMatrix(8)
	q := randomSequence(100, 50)
	s := append(append(randomSequence(101, 15), q[10:35]...), randomSequence(102, 15)...)
	a, err := AlignLocalTraceback(q, s, subst)
	if err != nil {
		t.Fatal(err)
	}
	if got := rescoreAlignment(a, subst); got != a.Score {
		t.Fatalf("alignment rescan %d ≠ reported score %d", got, a.Score)
	}
	if a.Identity() <= 0.5 {
		t.Fatalf("embedded-motif alignment should be identity-rich: %g", a.Identity())
	}
}

func TestTracebackSelfAlignment(t *testing.T) {
	subst := substitutionMatrix(2)
	seq := randomSequence(9, 25)
	a, err := AlignLocalTraceback(seq, seq, subst)
	if err != nil {
		t.Fatal(err)
	}
	if a.Identity() != 1 {
		t.Fatalf("self alignment identity %g, want 1", a.Identity())
	}
	if len(a.AlignedQuery) != len(seq) || a.QueryStart != 0 || a.SubjectStart != 0 {
		t.Fatalf("self alignment should span the sequence: %+v", a)
	}
	if _, err := AlignLocalTraceback(nil, seq, subst); err == nil {
		t.Fatal("empty query accepted")
	}
}

// Property: for random sequences the traceback score always equals the
// linear-space score and the recovered alignment rescans to it.
func TestTracebackConsistencyProperty(t *testing.T) {
	subst := substitutionMatrix(77)
	f := func(seedQ, seedS uint16, lq, ls uint8) bool {
		q := randomSequence(uint64(seedQ)+1, int(lq)%40+2)
		s := randomSequence(uint64(seedS)+7, int(ls)%40+2)
		a, err := AlignLocalTraceback(q, s, subst)
		if err != nil {
			return false
		}
		return a.Score == alignLocal(q, s, subst) && rescoreAlignment(a, subst) == a.Score
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSortTaskExternalMatchesInMemory: the external-sort reducer path must
// produce the same checksum as the in-memory path.
func TestSortTaskExternalMatchesInMemory(t *testing.T) {
	inMem, err := Sort{Records: 4096, Partitions: 4}.NewTask(77).Run()
	if err != nil {
		t.Fatal(err)
	}
	ext, err := Sort{Records: 4096, Partitions: 4, ExternalRunSize: 100}.NewTask(77).Run()
	if err != nil {
		t.Fatal(err)
	}
	if inMem != ext {
		t.Fatalf("external path diverged: %x vs %x", ext, inMem)
	}
}
