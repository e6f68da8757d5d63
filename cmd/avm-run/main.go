// Command avm-run records an accountable execution of one of the built-in
// scenarios into a directory that avm-audit can check later — the
// offline-audit workflow of §6.4 ("the log can be transferred to other
// players and replayed there ... after the game has finished"). The
// directory holds meta.json (the reference configuration), one
// <node>.auths per machine (the authenticators the other parties hold for
// it) and archive/, the disk archive of every machine's tamper-evident log
// and snapshot increments.
//
//	avm-run -scenario game -seconds 20 -out /tmp/match1
//	avm-run -scenario game -cheat unlimited-ammo -out /tmp/match2
//	avm-run -scenario db -seconds 60 -out /tmp/dbrun
package main

import (
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/archive"
	"repro/internal/avmm"
	"repro/internal/dbapp"
	"repro/internal/game"
	"repro/internal/sig"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
)

// Meta describes a recorded run so the auditor can rebuild the reference
// configuration. It deliberately contains no log data: the reference images
// are rebuilt from the (deterministic) guest sources.
type Meta struct {
	Scenario string            `json:"scenario"`
	Seed     uint64            `json:"seed"`
	Seconds  uint64            `json:"seconds"`
	Players  int               `json:"players,omitempty"`
	Cheat    string            `json:"cheat,omitempty"` // recorded for reproducibility; auditors don't trust it
	Nodes    map[string]int    `json:"nodes"`           // node → network index
	RNGSeeds map[string]uint64 `json:"rng_seeds"`
}

func main() {
	scenario := flag.String("scenario", "game", "scenario to record: game or db")
	seconds := flag.Uint64("seconds", 15, "virtual seconds to run")
	seed := flag.Uint64("seed", 1, "deterministic scenario seed")
	cheat := flag.String("cheat", "", "cheat for player 2 (game scenario only)")
	out := flag.String("out", "avm-run-out", "output directory")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	meta := Meta{
		Scenario: *scenario, Seed: *seed, Seconds: *seconds, Cheat: *cheat,
		Nodes: map[string]int{}, RNGSeeds: map[string]uint64{},
	}

	var monitors []*avmm.Monitor
	var world *avmm.World
	var collect func(node string) []tevlog.Authenticator

	switch *scenario {
	case "game":
		cfg := game.ScenarioConfig{
			Players: 3, Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(),
			Seed: *seed, SnapshotEveryNs: 5_000_000_000, FakeSignatures: true,
		}
		if *cheat != "" {
			c, err := game.CatalogByName(*cheat)
			if err != nil {
				log.Fatal(err)
			}
			cfg.CheatPlayer = 2
			cfg.Cheat = c
		}
		meta.Players = cfg.Players
		s, err := game.NewScenario(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("recording %d virtual seconds of fragfest (3 players + server) ...\n", *seconds)
		s.Run(*seconds * 1_000_000_000)
		world = s.World
		monitors = append(monitors, s.Server)
		monitors = append(monitors, s.Players...)
		for _, m := range monitors {
			meta.RNGSeeds[string(m.Node())] = s.RNGSeedOf(m.Index())
		}
		collect = func(node string) []tevlog.Authenticator {
			a, err := s.CollectAuths(sig.NodeID(node))
			if err != nil {
				log.Fatal(err)
			}
			return a
		}
	case "db":
		s, err := dbapp.NewScenario(dbapp.ScenarioConfig{
			Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(), Seed: *seed,
			SnapshotEveryNs: 10_000_000_000, FakeSignatures: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("recording %d virtual seconds of minisql ...\n", *seconds)
		s.Run(*seconds * 1_000_000_000)
		world = s.World
		monitors = []*avmm.Monitor{s.Server, s.Client}
		meta.RNGSeeds["db-server"] = *seed + 500
		meta.RNGSeeds["db-client"] = *seed + 501
		collect = func(node string) []tevlog.Authenticator {
			if node == "db-server" {
				a, err := s.ServerAuths()
				if err != nil {
					log.Fatal(err)
				}
				return a
			}
			a := s.Server.AuthenticatorsFor("db-client")
			if s.Client.Log.Len() > 0 {
				head, err := s.Client.Log.LastAuthenticator()
				if err != nil {
					log.Fatal(err)
				}
				a = append(a, head)
			}
			return a
		}
	default:
		log.Fatalf("unknown scenario %q (want game or db)", *scenario)
	}

	// Each node's recording goes into the disk archive: every snapshot
	// increment and every epoch's entry run lands as an authenticated,
	// crc-indexed, fsync-batched segment that avm-audit reads back and
	// re-verifies without trusting the recorder.
	arcDir := filepath.Join(*out, "archive")
	arc, err := archive.Open(arcDir)
	if err != nil {
		log.Fatal(err)
	}
	for _, mon := range monitors {
		node := string(mon.Node())
		meta.Nodes[node] = mon.Index()
		f, err := os.Create(filepath.Join(*out, node+".auths"))
		if err != nil {
			log.Fatal(err)
		}
		if err := gob.NewEncoder(f).Encode(collect(node)); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		var sf *snapshot.StoreFile
		if mon.Snaps != nil && mon.Snaps.Count() > 0 {
			file := mon.Snaps.File()
			sf = &file
		}
		before := arc.Bytes()
		if err := arc.WriteRecording(node, mon.Log.All(), sf); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s %6d entries → %8d bytes archived\n", node, mon.Log.Len(), arc.Bytes()-before)
	}
	total := arc.Bytes()
	if err := arc.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  archive    %8d bytes authenticated segments (%s)\n", total, arcDir)
	metaBytes, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(*out, "meta.json"), metaBytes, 0o644); err != nil {
		log.Fatal(err)
	}
	// Where the recording waited for its logging daemon. These scenarios
	// sign with paper-sized digests, which cost less than a handoff, so the
	// daemon signs them on request and nothing ever waits; with real keys
	// and more than one P the last three numbers say how much of the
	// signing the simulation could not hide.
	ds := world.DaemonStats()
	fmt.Printf("  daemon     %8d signatures, %d deliveries waited for one (%.1f ms in all), at most %d in flight\n",
		ds.Signatures, ds.Waits, float64(ds.WaitNs)/1e6, ds.MaxInFlight)
	fmt.Printf("wrote %s; audit with: avm-audit -dir %s -node <name>\n", *out, *out)
}
