package main

import (
	"bufio"
	"net"
	"strings"
	"testing"
	"time"

	"flashcoop"
)

// testNode spins up a solo live node for protocol tests.
func testNode(t *testing.T) *flashcoop.LiveNode {
	t.Helper()
	n, err := flashcoop.NewLiveNode(flashcoop.LiveConfig{
		Name: "proto-test", ListenAddr: "127.0.0.1:0",
		BufferPages: 64, RemotePages: 64,
		SSD:         flashcoop.DefaultSSD("page", 128),
		CallTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// call runs one line of the client protocol through serveClient.
func protoSession(t *testing.T, node *flashcoop.LiveNode, lines []string) []string {
	t.Helper()
	server, client := net.Pipe()
	go serveClient(node, server)
	defer client.Close()

	rd := bufio.NewReader(client)
	out := make([]string, 0, len(lines))
	for _, line := range lines {
		if err := client.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		resp, err := rd.ReadString('\n')
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		out = append(out, strings.TrimSpace(resp))
	}
	return out
}

func TestClientProtocolWriteReadStats(t *testing.T) {
	node := testNode(t)
	resps := protoSession(t, node, []string{
		"WRITE 5 cafebabe",
		"READ 5",
		"TRIM 5 1",
		"READ 5",
		"STATS",
	})
	if resps[0] != "OK" {
		t.Fatalf("WRITE: %q", resps[0])
	}
	if !strings.HasPrefix(resps[1], "OK cafebabe") {
		t.Fatalf("READ: %q", resps[1])
	}
	if resps[2] != "OK" {
		t.Fatalf("TRIM: %q", resps[2])
	}
	if !strings.HasPrefix(resps[3], "OK 0000") {
		t.Fatalf("READ after TRIM: %q", resps[3])
	}
	if !strings.Contains(resps[4], "writes=1") || !strings.Contains(resps[4], "reads=2") {
		t.Fatalf("STATS: %q", resps[4])
	}
}

func TestClientProtocolErrors(t *testing.T) {
	node := testNode(t)
	resps := protoSession(t, node, []string{
		"WRITE",            // missing args
		"WRITE x zz",       // bad lpn
		"WRITE 0 nothex!!", // bad hex
		"READ",             // missing args
		"READ notanint",    // bad lpn
		"TRIM 0",           // missing pages
		"FROB 1 2",         // unknown command
	})
	for i, r := range resps {
		if !strings.HasPrefix(r, "ERR") {
			t.Errorf("line %d: expected ERR, got %q", i, r)
		}
	}
}

func TestClientProtocolHealth(t *testing.T) {
	node := testNode(t)
	resps := protoSession(t, node, []string{"HEALTH"})
	// A solo node never joined a pair, so it reports degraded.
	for _, want := range []string{"OK state=degraded", "peerAlive=false", "rejoins=0", "overloads=0"} {
		if !strings.Contains(resps[0], want) {
			t.Errorf("HEALTH missing %q: %q", want, resps[0])
		}
	}
}

func TestClientProtocolScrub(t *testing.T) {
	// A memory-backed node has no on-disk checksums: SCRUB reports a
	// zero-width pass, and HEALTH carries the integrity counters.
	node := testNode(t)
	resps := protoSession(t, node, []string{"SCRUB", "HEALTH"})
	if !strings.HasPrefix(resps[0], "OK checked=0 corrupt=0") {
		t.Fatalf("SCRUB on a memory store: %q", resps[0])
	}
	for _, want := range []string{"corruptSlots=0", "repairedPages=0", "scrubPasses=0", "fsyncPoisoned=0", "poisonedEvictions=0"} {
		if !strings.Contains(resps[1], want) {
			t.Errorf("HEALTH missing %q: %q", want, resps[1])
		}
	}

	// A disk-backed node checks every durable record.
	disk, err := flashcoop.NewLiveNode(flashcoop.LiveConfig{
		Name: "proto-disk", ListenAddr: "127.0.0.1:0",
		BufferPages: 64, RemotePages: 64,
		SSD:         flashcoop.DefaultSSD("page", 128),
		DataDir:     t.TempDir(),
		CallTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	resps = protoSession(t, disk, []string{"WRITE 1 aa", "SCRUB"})
	if resps[0] != "OK" {
		t.Fatalf("WRITE: %q", resps[0])
	}
	if err := disk.FlushAll(); err != nil {
		t.Fatal(err)
	}
	resps = protoSession(t, disk, []string{"SCRUB"})
	if !strings.HasPrefix(resps[0], "OK checked=") || strings.HasPrefix(resps[0], "OK checked=0") {
		t.Fatalf("SCRUB after flush should check durable records: %q", resps[0])
	}
	if !strings.Contains(resps[0], "corrupt=0") {
		t.Fatalf("SCRUB flagged healthy records: %q", resps[0])
	}
}

func TestClientProtocolQuit(t *testing.T) {
	node := testNode(t)
	server, client := net.Pipe()
	done := make(chan struct{})
	go func() {
		serveClient(node, server)
		close(done)
	}()
	if _, err := client.Write([]byte("QUIT\n")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("serveClient did not exit on QUIT")
	}
	client.Close()
}

func TestRingMembers(t *testing.T) {
	cases := []struct {
		name, listen, peer, peers string
		want                      []string
		err                       string // substring; empty = success
	}{
		{name: "solo", listen: ":7001"},
		{name: "pair", listen: "host1:7001", peer: "host2:7002",
			want: []string{"host2:7002", "host1:7001"}},
		{name: "ring-listing-self", listen: "host1:7001", peers: "host1:7001, host2:7002,host3:7003",
			want: []string{"host1:7001", "host2:7002", "host3:7003"}},
		{name: "ring-without-self", listen: "host1:7001", peers: "host2:7002,host3:7003,",
			want: []string{"host2:7002", "host3:7003", "host1:7001"}},
		{name: "empty-host-ring", listen: ":7001", peers: "host1:7001,host2:7002,host3:7003", err: "no host"},
		{name: "empty-host-pair", listen: ":7001", peer: "host2:7002", err: "no host"},
		{name: "both-flags", listen: "host1:7001", peer: "host2:7002", peers: "host2:7002", err: "mutually exclusive"},
		{name: "peer-is-self", listen: "host1:7001", peer: "host1:7001", err: "at least 2"},
		{name: "bad-listen", listen: "host1", peer: "host2:7002", err: "-listen"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ringMembers(tc.listen, tc.peer, tc.peers)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want one containing %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if strings.Join(got, ",") != strings.Join(tc.want, ",") {
				t.Fatalf("members = %q, want %q", got, tc.want)
			}
		})
	}
}
