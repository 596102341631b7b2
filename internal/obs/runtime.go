package obs

import "runtime"

// GoRuntimeCollector reports the Go runtime's health into the registry at
// scrape time: heap and stack sizes, GC pause behavior, goroutine count,
// and scheduler width. Register it once:
//
//	reg.RegisterCollector(obs.GoRuntimeCollector())
//
// runtime.ReadMemStats stops the world for microseconds; running it per
// scrape (typically every 15–60 s) is negligible, and scrape-time
// collection means the values are current without a polling goroutine.
func GoRuntimeCollector() Collector {
	return func(r *Registry) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.Gauge("go_goroutines").Set(float64(runtime.NumGoroutine()))
		r.Gauge("go_gomaxprocs").Set(float64(runtime.GOMAXPROCS(0)))
		r.Gauge("go_heap_alloc_bytes").Set(float64(ms.HeapAlloc))
		r.Gauge("go_heap_sys_bytes").Set(float64(ms.HeapSys))
		r.Gauge("go_heap_objects").Set(float64(ms.HeapObjects))
		r.Gauge("go_stack_inuse_bytes").Set(float64(ms.StackInuse))
		r.Gauge("go_next_gc_bytes").Set(float64(ms.NextGC))
		gc := r.Counter("go_gc_cycles_total")
		gc.Add(int64(ms.NumGC) - gc.Value())
		r.Gauge("go_gc_pause_total_seconds").Set(float64(ms.PauseTotalNs) / 1e9)
		if ms.NumGC > 0 {
			last := ms.PauseNs[(ms.NumGC+255)%256]
			r.Gauge("go_gc_pause_last_seconds").Set(float64(last) / 1e9)
		} else {
			r.Gauge("go_gc_pause_last_seconds").Set(0)
		}
	}
}
