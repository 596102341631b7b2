package propack

import (
	"fmt"
	"testing"

	"repro/internal/workload"
)

// These two benches time the real workload kernels on the host, which no
// workload of `go run ./benchmark` runs. Every other performance number
// lives in that harness.

// BenchmarkKernels times the actual Go computation behind each workload.
func BenchmarkKernels(b *testing.B) {
	kernels := []struct {
		name string
		w    Workload
	}{
		{"video", workload.Video{Frames: 4}},
		{"sort", workload.Sort{Records: 1 << 14}},
		{"resize", workload.StatelessCost{Images: 2, SrcSize: 128}},
		{"smith-waterman", workload.SmithWaterman{QueryLen: 128, Subjects: 8, SubjectLen: 128}},
		{"xapian", workload.Xapian{Docs: 500, Queries: 16}},
	}
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := k.w.NewTask(int64(i)).Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLocalPacking measures real goroutine-level packing interference
// on the host machine: the same total work at increasing packing degrees.
func BenchmarkLocalPacking(b *testing.B) {
	w := workload.StatelessCost{Images: 1, SrcSize: 128}
	for _, degree := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("degree-%d", degree), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := workload.RunPacked(w, degree, 2, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
