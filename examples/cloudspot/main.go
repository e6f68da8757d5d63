// Command cloudspot demonstrates the hosted-service scenario (paper §3.5,
// §6.12, §7.1): a database server runs in an AVM on a provider's machine;
// the customer audits it with spot checks — replaying only selected
// k-chunks of the log between authenticated snapshots instead of the whole
// execution.
//
//	go run ./examples/cloudspot
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/audit"
	"repro/internal/avmm"
	"repro/internal/dbapp"
	"repro/internal/tevlog"
)

func main() {
	s, err := dbapp.NewScenario(dbapp.ScenarioConfig{
		Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(), Seed: 99,
		SnapshotEveryNs: 20_000_000_000, FakeSignatures: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	const run = 120_000_000_000 // 2 virtual minutes
	fmt.Println("running minisql under the AVMM for 2 virtual minutes, snapshot every 20 s ...")
	s.Run(run)

	entries := s.Server.Log.All()
	points, err := audit.FindSnapshots(entries)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server log: %d entries, %d bytes, %d snapshots\n\n",
		len(entries), s.Server.TotalLogBytes(), len(points))

	auths, err := s.ServerAuths()
	if err != nil {
		log.Fatal(err)
	}
	a := s.Auditor()

	// Full audit, for the cost baseline.
	start := time.Now()
	full, _, err := a.Audit(audit.AuditRequest{Node: "db-server", Entries: entries, Auths: auths})
	fullWall := time.Since(start)
	if err != nil {
		log.Fatal(err)
	}
	if !full.Passed {
		log.Fatalf("full audit failed: %v", full.Fault)
	}
	fmt.Printf("full audit:    PASSED in %v (%d instructions replayed, %d bytes transferred)\n",
		fullWall.Round(time.Millisecond), full.Replay.Instructions, s.Server.TotalLogBytes())

	// Spot check: audit a single chunk in the middle of the execution.
	if len(points) < 3 {
		log.Fatal("not enough snapshots for a spot check")
	}
	startPt, endPt := points[1], points[2]
	restored, err := s.Server.Snaps.Materialize(int(startPt.SnapIdx))
	if err != nil {
		log.Fatal(err)
	}
	transfer, err := s.Server.Snaps.TransferBytes(int(startPt.SnapIdx))
	if err != nil {
		log.Fatal(err)
	}
	chunk := entries[startPt.EntryIndex+1 : endPt.EntryIndex+1]
	startT := time.Now()
	res, _, err := a.Audit(audit.AuditRequest{Chunk: &audit.ChunkRequest{
		Node: "db-server", NodeIdx: 0,
		Start: restored, StartRoot: startPt.Root, PrevHash: startPt.EntryHash,
		Entries: chunk, Auths: auths,
	}})
	chunkWall := time.Since(startT)
	if err != nil {
		log.Fatal(err)
	}
	if !res.Passed {
		log.Fatalf("spot check failed: %v", res.Fault)
	}
	data := transfer + len(tevlog.MarshalSegment(chunk))
	fmt.Printf("1-chunk check: PASSED in %v (snapshot %d → %d; %d bytes transferred)\n",
		chunkWall.Round(time.Millisecond), startPt.SnapIdx, endPt.SnapIdx, data)
	fmt.Printf("               time %.1f%% / data %.1f%% of the full audit\n\n",
		float64(chunkWall)/float64(fullWall)*100,
		float64(data)/float64(s.Server.TotalLogBytes())*100)

	// Spot checks also catch tampered state: corrupt one byte of the
	// downloaded snapshot (say, a doctored account balance).
	fmt.Println("simulating a provider handing over a doctored snapshot ...")
	restored2, err := s.Server.Snaps.Materialize(int(startPt.SnapIdx))
	if err != nil {
		log.Fatal(err)
	}
	restored2.Mem[50_000] ^= 0x01
	bad, _, err := a.Audit(audit.AuditRequest{Chunk: &audit.ChunkRequest{
		Node: "db-server", NodeIdx: 0,
		Start: restored2, StartRoot: startPt.Root, PrevHash: startPt.EntryHash,
		Entries: chunk, Auths: auths,
	}})
	if err != nil {
		log.Fatal(err)
	}
	if bad.Passed {
		log.Fatal("doctored snapshot passed!")
	}
	fmt.Printf("  detected: %s (%s check)\n", bad.Fault.Detail, bad.Fault.Check)
	fmt.Println("\ncloudspot complete: spot checks audit slices of a long execution at a fraction of the cost.")
}
