package workload

import "fmt"

// Smith-Waterman with traceback: the full-matrix variant that recovers the
// actual local alignment, not just its score. The linear-space scorer in
// smithwaterman.go is what the serverless functions run at scale; this one
// is the tests' oracle — both variants must agree on the score for every
// input.

// Alignment is one recovered local alignment.
type Alignment struct {
	Score int32
	// QueryStart/SubjectStart are 0-based offsets of the aligned region.
	QueryStart, SubjectStart int
	// AlignedQuery/AlignedSubject are the aligned residues with 255 as the
	// gap marker, equal lengths.
	AlignedQuery, AlignedSubject []byte
}

// GapByte marks a gap position in an Alignment.
const GapByte = 255

// Identity reports the fraction of alignment columns with equal residues.
func (a Alignment) Identity() float64 {
	if len(a.AlignedQuery) == 0 {
		return 0
	}
	match := 0
	for i := range a.AlignedQuery {
		if a.AlignedQuery[i] == a.AlignedSubject[i] && a.AlignedQuery[i] != GapByte {
			match++
		}
	}
	return float64(match) / float64(len(a.AlignedQuery))
}

const (
	tbStop = iota
	tbDiag
	tbUp   // gap in subject (consume query)
	tbLeft // gap in query (consume subject)
)

// AlignLocalTraceback computes the best Smith-Waterman local alignment of q
// vs s under the same affine-gap parameters as the scorer and returns the
// alignment. It uses O(len(q)·len(s)) memory; intended for result
// inspection on modest inputs, not the hot path.
func AlignLocalTraceback(q, s []byte, subst *[alphabet][alphabet]int32) (Alignment, error) {
	n, m := len(q), len(s)
	if n == 0 || m == 0 {
		return Alignment{}, fmt.Errorf("workload: empty sequence")
	}
	const negInf = int32(-1 << 30)
	idx := func(i, j int) int { return i*(m+1) + j }
	h := make([]int32, (n+1)*(m+1))
	e := make([]int32, (n+1)*(m+1)) // gap in s, extends vertically
	f := make([]int32, (n+1)*(m+1)) // gap in q, extends horizontally
	dir := make([]uint8, (n+1)*(m+1))
	for j := 0; j <= m; j++ {
		e[idx(0, j)] = negInf
		f[idx(0, j)] = negInf
	}
	for i := 0; i <= n; i++ {
		e[idx(i, 0)] = negInf
		f[idx(i, 0)] = negInf
	}
	var best int32
	bi, bj := 0, 0
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			e[idx(i, j)] = max32(e[idx(i-1, j)]-swGapExtend, h[idx(i-1, j)]-swGapOpen)
			f[idx(i, j)] = max32(f[idx(i, j-1)]-swGapExtend, h[idx(i, j-1)]-swGapOpen)
			diag := h[idx(i-1, j-1)] + subst[q[i-1]][s[j-1]]
			score := diag
			d := uint8(tbDiag)
			if e[idx(i, j)] > score {
				score, d = e[idx(i, j)], tbUp
			}
			if f[idx(i, j)] > score {
				score, d = f[idx(i, j)], tbLeft
			}
			if score <= 0 {
				score, d = 0, tbStop
			}
			h[idx(i, j)] = score
			dir[idx(i, j)] = d
			if score > best {
				best, bi, bj = score, i, j
			}
		}
	}
	// Trace back from the best cell with a three-state walk (H/E/F): affine
	// gaps extend inside E or F until the chain's opening transition back
	// to H, so the state must be tracked explicitly.
	const (
		inH = iota
		inE
		inF
	)
	var aq, as []byte
	i, j := bi, bj
	state := inH
	for i > 0 && j > 0 {
		switch state {
		case inH:
			if h[idx(i, j)] <= 0 {
				goto done // local alignment starts here
			}
			switch dir[idx(i, j)] {
			case tbDiag:
				aq = append(aq, q[i-1])
				as = append(as, s[j-1])
				i--
				j--
			case tbUp:
				state = inE
			case tbLeft:
				state = inF
			default:
				goto done // tbStop
			}
		case inE:
			// A gap in the subject: consume one query residue, then decide
			// whether the chain opened here or extends.
			aq = append(aq, q[i-1])
			as = append(as, GapByte)
			opened := e[idx(i, j)] == h[idx(i-1, j)]-swGapOpen
			i--
			if opened {
				state = inH
			}
		case inF:
			aq = append(aq, GapByte)
			as = append(as, s[j-1])
			opened := f[idx(i, j)] == h[idx(i, j-1)]-swGapOpen
			j--
			if opened {
				state = inH
			}
		}
	}
done:
	reverseBytes(aq)
	reverseBytes(as)
	return Alignment{
		Score:          best,
		QueryStart:     i,
		SubjectStart:   j,
		AlignedQuery:   aq,
		AlignedSubject: as,
	}, nil
}

func reverseBytes(b []byte) {
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
}
