// Cluster: two live FlashCoop nodes over real TCP (both in this process,
// but the protocol is identical across machines). Demonstrates cooperative
// write buffering, a hard crash of one node, heartbeat-driven failover on
// the survivor, and recovery of the crashed node's dirty data from its
// partner's remote buffer.
package main

import (
	"fmt"
	"log"
	"time"

	"flashcoop"
)

func main() {
	ssd := flashcoop.DefaultSSD("bast", 512)

	nodeA, err := flashcoop.NewLiveNode(flashcoop.LiveConfig{
		Name: "node-a", ListenAddr: "127.0.0.1:0",
		Policy: flashcoop.PolicyLAR, BufferPages: 256, RemotePages: 512,
		SSD: ssd, HeartbeatInterval: 50 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	nodeB, err := flashcoop.NewLiveNode(flashcoop.LiveConfig{
		Name: "node-b", ListenAddr: "127.0.0.1:0", PeerAddr: nodeA.Addr(),
		Policy: flashcoop.PolicyLAR, BufferPages: 256, RemotePages: 512,
		SSD: ssd, HeartbeatInterval: 50 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	// A was created before B's port existed: join it to the same 2-member
	// ring B's PeerAddr set up.
	if err := nodeA.SetMembers(1, []string{nodeA.Addr(), nodeB.Addr()}); err != nil {
		log.Fatal(err)
	}
	if err := nodeA.ConnectPeer(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node-a %s <-> node-b %s\n", nodeA.Addr(), nodeB.Addr())

	// 1. Cooperative buffering: writes land in A's buffer and B's RAM.
	ps := nodeA.Device().PageSize()
	for i := int64(0); i < 20; i++ {
		page := make([]byte, ps)
		page[0] = byte(0xC0 + i)
		if err := nodeA.Write(i, page); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("wrote 20 pages: node-a dirty=%d, node-b backups=%d\n",
		nodeA.Buffer().DirtyLen(), nodeB.RemoteLen())

	// 2. node-a crashes hard: its buffer (and our 20 dirty pages) is gone.
	nodeA.Crash()
	fmt.Println("node-a crashed (nothing flushed)")

	// 3. A replacement node recovers the dirty data from node-b. node-b
	// files node-a's backups under node-a's member ID — its listen address
	// — so the replacement rebinds that address.
	nodeA2, err := flashcoop.NewLiveNode(flashcoop.LiveConfig{
		Name: "node-a-recovered", ListenAddr: nodeA.Addr(), PeerAddr: nodeB.Addr(),
		Policy: flashcoop.PolicyLAR, BufferPages: 256, RemotePages: 512,
		SSD: ssd,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer nodeA2.Close()
	if err := nodeA2.ConnectPeer(); err != nil {
		log.Fatal(err)
	}
	if err := nodeA2.RecoverFromPeer(); err != nil {
		log.Fatal(err)
	}
	ok := true
	for i := int64(0); i < 20; i++ {
		data, err := nodeA2.Read(i, 1)
		if err != nil {
			log.Fatal(err)
		}
		if data[0] != byte(0xC0+i) {
			ok = false
			fmt.Printf("  page %d WRONG: %#x\n", i, data[0])
		}
	}
	fmt.Printf("recovery complete: all 20 pages intact = %v, node-b backups left = %d\n",
		ok, nodeB.RemoteLen())

	// 4. node-b crashes; the survivor detects it via heartbeat and
	// flushes its remaining dirty data synchronously.
	nodeA2.StartHeartbeat()
	page := make([]byte, ps)
	page[0] = 0xEE
	if err := nodeA2.Write(100, page); err != nil {
		log.Fatal(err)
	}
	nodeB.Crash()
	fmt.Println("node-b crashed; waiting for heartbeat failover...")
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && (nodeA2.PeerAlive() || nodeA2.Buffer().DirtyLen() > 0) {
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Printf("failover done: peerAlive=%v, dirty=%d (flushed to SSD), failovers=%d\n",
		nodeA2.PeerAlive(), nodeA2.Buffer().DirtyLen(), nodeA2.Stats().Failovers)
}
