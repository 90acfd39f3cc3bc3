package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flashcoop/internal/faultfs"
)

func BenchmarkMessageMarshal(b *testing.B) {
	lpns := make([]int64, 64)
	data := make([]byte, 64*4096)
	for i := range lpns {
		lpns[i] = int64(i * 7)
	}
	m := &Message{Type: MsgWriteFwd, Seq: 42, LPNs: lpns, Data: data}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMessageUnmarshal(b *testing.B) {
	lpns := make([]int64, 64)
	data := make([]byte, 64*4096)
	m := &Message{Type: MsgWriteFwd, Seq: 42, LPNs: lpns, Data: data}
	body, err := m.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got Message
		if err := got.Unmarshal(body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveWriteRTT measures the end-to-end cost of one cooperative
// page write over loopback TCP: buffer insert + forward + remote ack.
func BenchmarkLiveWriteRTT(b *testing.B) {
	a, err := NewLiveNode(LiveConfig{
		Name: "a", ListenAddr: "127.0.0.1:0",
		BufferPages: 1 << 20, RemotePages: 1 << 20, SSD: liveSSD(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	bn, err := NewLiveNode(LiveConfig{
		Name: "b", ListenAddr: "127.0.0.1:0", PeerAddr: a.Addr(),
		BufferPages: 1 << 20, RemotePages: 1 << 20, SSD: liveSSD(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer bn.Close()
	if err := bn.ConnectPeer(); err != nil {
		b.Fatal(err)
	}
	ps := bn.Device().PageSize()
	pg := make([]byte, ps)
	user := bn.Device().UserPages()
	b.ReportAllocs()
	b.SetBytes(int64(ps))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bn.Write(int64(i)%user, pg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPair builds a cooperative pair with the given shard count for the
// parallel benchmarks. Buffers are sized small relative to the touched LPN
// range so the write benchmark constantly evicts through the background
// flush pipeline. With fileStore each node keeps its pages in a file
// store under its own temporary DataDir.
func benchPair(b *testing.B, shards, bufPages int, fileStore bool) *LiveNode {
	b.Helper()
	dataDir := func() string {
		if fileStore {
			return b.TempDir()
		}
		return ""
	}
	a, err := NewLiveNode(LiveConfig{
		Name: "a", ListenAddr: "127.0.0.1:0",
		BufferPages: bufPages, RemotePages: 1 << 20, SSD: liveSSD(),
		Shards: shards, DataDir: dataDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	bn, err := NewLiveNode(LiveConfig{
		Name: "b", ListenAddr: "127.0.0.1:0", PeerAddr: a.Addr(),
		BufferPages: bufPages, RemotePages: 1 << 20, SSD: liveSSD(),
		Shards: shards, DataDir: dataDir(),
	})
	if err != nil {
		a.Close()
		b.Fatal(err)
	}
	if err := bn.ConnectPeer(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		bn.Close()
		a.Close()
	})
	return bn
}

// BenchmarkLiveWriteParallel measures parallel writers against the striped
// hot path at several shard counts: lock striping plus per-shard evictors
// should scale writes/sec with the shard count until cores or the forward
// pipeline saturate.
func BenchmarkLiveWriteParallel(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			bn := benchPair(b, shards, 256, false)
			ps := bn.Device().PageSize()
			user := bn.Device().UserPages()
			var next atomic.Int64
			b.ReportAllocs()
			b.SetBytes(int64(ps))
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				pg := make([]byte, ps)
				for pb.Next() {
					lpn := (next.Add(1) * 8) % user
					if err := bn.Write(lpn, pg); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkLiveReadParallel measures parallel readers over a working set
// larger than the buffer, so reads mix shard-striped cache hits with
// store lookups: from an in-memory store at several shard counts, and
// (store=file) from the checksummed file store, which reads and verifies
// a whole record per store hit.
func BenchmarkLiveReadParallel(b *testing.B) {
	for _, bc := range []struct {
		name      string
		shards    int
		fileStore bool
	}{{"shards=1", 1, false}, {"shards=4", 4, false}, {"shards=16", 16, false}, {"store=file", 4, true}} {
		b.Run(bc.name, func(b *testing.B) {
			bn := benchPair(b, bc.shards, 256, bc.fileStore)
			ps := bn.Device().PageSize()
			pg := make([]byte, ps)
			span := bn.Device().UserPages() / 8
			for i := int64(0); i < span; i++ {
				if err := bn.Write(i*8, pg); err != nil {
					b.Fatal(err)
				}
			}
			if err := bn.FlushAll(); err != nil {
				b.Fatal(err)
			}
			var next atomic.Int64
			b.ReportAllocs()
			b.SetBytes(int64(ps))
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					lpn := ((next.Add(1) * 8) % (span * 8))
					if _, err := bn.Read(lpn, 1); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkLiveWriteConcurrent measures the pipelined path under parallel
// writers: group commit should amortize frames across goroutines, so
// writes/sec here should beat BenchmarkLiveWriteRTT by a wide margin.
func BenchmarkLiveWriteConcurrent(b *testing.B) {
	a, err := NewLiveNode(LiveConfig{
		Name: "a", ListenAddr: "127.0.0.1:0",
		BufferPages: 1 << 20, RemotePages: 1 << 20, SSD: liveSSD(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	bn, err := NewLiveNode(LiveConfig{
		Name: "b", ListenAddr: "127.0.0.1:0", PeerAddr: a.Addr(),
		BufferPages: 1 << 20, RemotePages: 1 << 20, SSD: liveSSD(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer bn.Close()
	if err := bn.ConnectPeer(); err != nil {
		b.Fatal(err)
	}
	ps := bn.Device().PageSize()
	user := bn.Device().UserPages()
	var next atomic.Int64
	b.ReportAllocs()
	b.SetBytes(int64(ps))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		pg := make([]byte, ps)
		for pb.Next() {
			lpn := next.Add(1) % user
			if err := bn.Write(lpn, pg); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	st := bn.Stats()
	if st.FwdFrames > 0 {
		b.ReportMetric(float64(st.Forwards)/float64(st.FwdFrames), "writes/frame")
	}
}

// slowReadFS delays every store File.ReadAt by a fixed latency, modeling a
// store whose fills are not free (a real pread off flash). Writes and
// syncs are untouched, so only the read-miss fill path feels it.
type slowReadFS struct {
	faultfs.FS
	delay time.Duration
}

func (s slowReadFS) OpenFile(path string) (faultfs.File, error) {
	f, err := s.FS.OpenFile(path)
	if err != nil {
		return nil, err
	}
	return slowReadFile{File: f, delay: s.delay}, nil
}

type slowReadFile struct {
	faultfs.File
	delay time.Duration
}

func (f slowReadFile) ReadAt(p []byte, off int64) (int, error) {
	time.Sleep(f.delay)
	return f.File.ReadAt(p, off)
}

// BenchmarkLiveWriteUnderMissReader checks the off-lock fill property at
// the macro level: measured write throughput on a SINGLE shard, with and
// without a background reader sustaining buffer misses on that same
// shard. Store reads carry a fixed artificial latency, so each of the
// reader's miss fills parks in the store for a while — exactly the window
// that used to sit inside the shard critical section. With fills off the
// lock, reader=on should track reader=off; before the rework every fill
// would have stalled all same-shard writers for the full store latency.
func BenchmarkLiveWriteUnderMissReader(b *testing.B) {
	for _, withReader := range []bool{false, true} {
		name := "reader=off"
		if withReader {
			name = "reader=on"
		}
		b.Run(name, func(b *testing.B) {
			a, err := NewLiveNode(LiveConfig{
				Name: "a", ListenAddr: "127.0.0.1:0",
				BufferPages: 256, RemotePages: 1 << 20, SSD: liveSSD(),
				Shards: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			bn, err := NewLiveNode(LiveConfig{
				Name: "b", ListenAddr: "127.0.0.1:0", PeerAddr: a.Addr(),
				BufferPages: 256, RemotePages: 1 << 20, SSD: liveSSD(),
				Shards:  1, // one shard: reader and writers MUST share the lock
				DataDir: b.TempDir(),
				FS:      slowReadFS{FS: faultfs.OS(), delay: 200 * time.Microsecond},
			})
			if err != nil {
				a.Close()
				b.Fatal(err)
			}
			b.Cleanup(func() {
				bn.Close()
				a.Close()
			})
			if err := bn.ConnectPeer(); err != nil {
				b.Fatal(err)
			}
			ps := bn.Device().PageSize()
			user := bn.Device().UserPages()
			pg := make([]byte, ps)
			// Seed a durable working set 4x the buffer in the low LPN
			// range: the background reader sweeping it misses the buffer
			// on nearly every read and parks in the slowed store fill.
			span := int64(1024)
			if span > user/2 {
				span = user / 2
			}
			for i := int64(0); i < span; i++ {
				if err := bn.Write(i, pg); err != nil {
					b.Fatal(err)
				}
			}
			if err := bn.FlushAll(); err != nil {
				b.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			if withReader {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var i int64
					for {
						select {
						case <-stop:
							return
						default:
						}
						i++
						if _, err := bn.Read(i%span, 1); err != nil {
							return
						}
					}
				}()
			}
			// Writers churn whole blocks in the upper half of the LPN
			// space so they never hand the reader cache hits.
			base := (user / 2) &^ 7
			blocks := (user - base - 8) / 8
			var next atomic.Int64
			b.ReportAllocs()
			b.SetBytes(int64(ps))
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				wpg := make([]byte, ps)
				for pb.Next() {
					lpn := base + (next.Add(1)%blocks)*8
					if err := bn.Write(lpn, wpg); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}
