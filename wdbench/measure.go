package main

import (
	"runtime"
	"runtime/metrics"

	"sharedwd/internal/binproto"
	"sharedwd/internal/core"
	"sharedwd/internal/server"
)

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// allocMeter accumulates heap allocation counts over the timed region;
// with pause/resume it counts only the bracketed calls.
type allocMeter struct {
	samples              []metrics.Sample
	bytes, objs          uint64 // allocated between resume and pause
	b0, o0               uint64 // counters at the last resume
	gcStart, gcCount     uint64
	running, gcMeasuring bool
}

func (m *allocMeter) read() (bytes, objs, cycles uint64) {
	if m.samples == nil {
		m.samples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}, {Name: "/gc/cycles/total:gc-cycles"}}
	}
	metrics.Read(m.samples)
	return m.samples[0].Value.Uint64(), m.samples[1].Value.Uint64(), m.samples[2].Value.Uint64()
}

// start begins the timed region: GC cycles count over all of it,
// allocations only between resume and pause.
func (m *allocMeter) start() {
	_, _, m.gcStart = m.read()
	m.gcMeasuring = true
}

func (m *allocMeter) resume() {
	if !m.running {
		m.b0, m.o0, _ = m.read()
		m.running = true
	}
}

func (m *allocMeter) pause() {
	if m.running {
		b, o, _ := m.read()
		m.bytes += b - m.b0
		m.objs += o - m.o0
		m.running = false
	}
}

func (m *allocMeter) stop() {
	m.pause()
	if m.gcMeasuring {
		_, _, c := m.read()
		m.gcCount = c - m.gcStart
		m.gcMeasuring = false
	}
}

func (m *allocMeter) report(res *result, ops int64) {
	m.stop()
	res.put("alloc_bytes_per_op", float64(m.bytes)/float64(ops))
	res.put("allocs_per_op", float64(m.objs)/float64(ops))
	res.put("gc_cycles", float64(m.gcCount))
}

// frameSample keeps a few of the workload's own query batches and answers
// so the traced run can time the binary codec on them.
type frameSample struct {
	queries [][]string
	results [][]server.Result
}

const sampleFrames = 64

// addRound keeps round r's auctions as one batch: the occurring phrases'
// names as queries and their slots as answers.
func (f *frameSample) addRound(u *universe, r int, occ []bool, auctions map[int][]core.SlotResult) {
	if len(f.queries) == sampleFrames {
		return
	}
	var qs []string
	var rs []server.Result
	for q, o := range occ {
		if o {
			qs = append(qs, u.names[q])
			rs = append(rs, server.Result{Phrase: q, Round: r, Slots: append([]core.SlotResult(nil), auctions[q]...)})
		}
	}
	if len(qs) > 0 {
		f.add(qs, rs)
	}
}

func (f *frameSample) add(queries []string, results []server.Result) {
	if len(f.queries) < sampleFrames {
		f.queries = append(f.queries, queries)
		f.results = append(f.results, results)
	}
}

// encodeNsPerQuery times AppendBatch plus AppendBatchReply over the kept
// frames and returns the cost per query.
func (f *frameSample) encodeNsPerQuery() float64 {
	if len(f.queries) == 0 {
		return 0
	}
	const reps = 200
	buf := make([]byte, 0, 64<<10)
	widest := 0
	for _, qs := range f.queries {
		widest = max(widest, len(qs))
	}
	errs := make([]error, widest)
	n := 0
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	for rep := 0; rep < reps; rep++ {
		for i, qs := range f.queries {
			buf = binproto.AppendBatch(buf[:0], uint64(i), 0, qs)
			buf = binproto.AppendBatchReply(buf[:0], uint64(i), f.results[i], errs[:len(qs)])
			n += len(qs)
		}
	}
	return float64((threadCPU() - c0).Nanoseconds()) / float64(n)
}
