package coherence_test

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/coherence"
	"repro/internal/splash"
)

// benchProcs and benchConfig are the machine the recorded stream ran
// on: OCEAN's quick data set on 8 integrated+victim nodes.
const (
	benchProcs  = 8
	benchConfig = coherence.IntegratedVictim
)

// access is one served access as the issuing node saw it.
type access struct {
	proc  int
	addr  uint64
	write bool
}

// recordingNode wraps a node of the recording machine. Machine.Access
// hands every access to the issuing node exactly once, after the
// directory work, so the wrappers append the served stream in service
// order.
type recordingNode struct {
	coherence.Node
	id     int
	stream *[]access
}

func (n recordingNode) Access(addr uint64, write, local bool) (uint64, bool) {
	*n.stream = append(*n.stream, access{n.id, addr, write})
	return n.Node.Access(addr, write, local)
}

// placement is one page and the node the recording machine homed it on.
type placement struct {
	page uint64
	node int
}

// recording is OCEAN's served accesses, recorded once, with the home
// of every page they touch and the machine that served them.
type recording struct {
	stream []access
	homes  []placement
	m      *coherence.Machine
}

var benchStream = sync.OnceValue(func() recording {
	m := coherence.NewConfiguredMachine(benchConfig, benchProcs)
	var stream []access
	for i, n := range m.Nodes {
		m.Nodes[i] = recordingNode{Node: n, id: i, stream: &stream}
	}
	ocean, err := splash.ByName("OCEAN")
	if err != nil {
		panic(err)
	}
	ocean.RunMachine(benchProcs, m, splash.Quick())
	for i, n := range m.Nodes {
		m.Nodes[i] = n.(recordingNode).Node
	}
	var homes []placement
	seen := map[uint64]bool{}
	for _, a := range stream {
		if page := a.addr / coherence.PageSize; !seen[page] {
			seen[page] = true
			homes = append(homes, placement{page, m.HomeOf(a.addr)})
		}
	}
	return recording{stream, homes, m}
})

// BenchmarkMachineAccess measures the coherence model alone, in
// accesses per second: each iteration replays the recorded OCEAN
// stream through Machine.Access into a fresh machine that homes every
// page where the recording machine did. Building the machine,
// allocating the directory and bitset chunks the replay will touch and
// a collection are left out of the time, so the timed replay allocates
// nothing (allocs/op reads 0) and starts no collection, whose
// background work would allocate on other cores.
func BenchmarkMachineAccess(b *testing.B) {
	rec := benchStream()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := coherence.NewConfiguredMachine(benchConfig, benchProcs)
		for _, h := range rec.homes {
			m.Place(h.page*coherence.PageSize, coherence.PageSize, h.node)
		}
		coherence.TouchChunksLike(m, rec.m)
		runtime.GC()
		b.StartTimer()
		for _, a := range rec.stream {
			m.Access(a.proc, a.addr, a.write)
		}
	}
	b.ReportMetric(float64(len(rec.stream))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mop/s")
}
