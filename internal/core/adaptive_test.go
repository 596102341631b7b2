package core

import "testing"

func TestDegreeRangeStability(t *testing.T) {
	m := synthModels()
	const c = 5000
	best, err := m.OptimalDegree(c, Balanced())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := m.DegreeRange(c, Balanced(), 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if best < lo || best > hi {
		t.Fatalf("optimum %d outside band [%d, %d]", best, lo, hi)
	}
	if lo < 1 || hi > m.MaxDegree {
		t.Fatalf("band [%d, %d] out of bounds", lo, hi)
	}
	// Zero tolerance collapses near the optimum; a huge tolerance spans
	// everything.
	lo0, hi0, err := m.DegreeRange(c, Balanced(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if hi0-lo0 > hi-lo {
		t.Fatal("tighter tolerance produced a wider band")
	}
	loAll, hiAll, err := m.DegreeRange(c, Balanced(), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if loAll != 1 || hiAll != m.MaxDegree {
		t.Fatalf("huge tolerance should span [1, %d], got [%d, %d]", m.MaxDegree, loAll, hiAll)
	}
	if _, _, err := m.DegreeRange(c, Balanced(), -1); err == nil {
		t.Fatal("negative tolerance accepted")
	}
}
