package main

import (
	"fmt"

	avm "repro"
)

// The kvstate guests. The stock guests have 128 KiB and 256 KiB of
// memory, so snapshot, merkle and archive cost nothing next to signing
// and replay. This pair exists to make state the dominant cost: a server
// with 16 MiB of memory that scatters writes over two 4 MiB tables, and a
// timer-paced client that keeps it dirtying pages at a fixed rate.

const kvServerMem = 16 << 20

const kvPorts = `
const RNG = 0x03;
const NET_RX_STATUS = 0x20;
const NET_RX_LEN = 0x21;
const NET_RX_FROM = 0x22;
const NET_RX_BYTE = 0x23;
const NET_RX_DONE = 0x24;
const NET_TX_BYTE = 0x28;
const NET_TX_COMMIT = 0x29;
const TIMER_PERIOD = 0x40;
`

// kvServerSource holds two tables of 1<<20 words (the compiler caps an
// array at 1<<20 elements). Each request hashes its key into 8 scattered
// writes, 4 per table, so one request dirties up to 8 pages.
const kvServerSource = kvPorts + `
const MASK = 1048575;
var tab_a[1048576];
var tab_b[1048576];
var ops = 0;

interrupt(1) func on_net() { }

func handle() {
	var n = in(NET_RX_LEN);
	var from = in(NET_RX_FROM);
	var k = in(NET_RX_BYTE) + (in(NET_RX_BYTE) << 8) + (in(NET_RX_BYTE) << 16) + (in(NET_RX_BYTE) << 24);
	out(NET_RX_DONE, 0);
	ops = ops + 1;
	var h = k;
	var acc = 0;
	var i = 0;
	while (i < 4) {
		h = h * 2654435761 + 40503;
		var ia = (h >> 7) & MASK;
		tab_a[ia] = tab_a[ia] + k;
		h = h * 2654435761 + 40503;
		var ib = (h >> 7) & MASK;
		tab_b[ib] = tab_b[ib] + ops;
		acc = acc + tab_a[ia] + tab_b[ib];
		i = i + 1;
	}
	out(NET_TX_BYTE, 'R');
	out(NET_TX_BYTE, acc & 0xFF);
	out(NET_TX_BYTE, (acc >> 8) & 0xFF);
	out(NET_TX_BYTE, (acc >> 16) & 0xFF);
	out(NET_TX_BYTE, (acc >> 24) & 0xFF);
	out(NET_TX_COMMIT, from);
}

func main() {
	sti();
	while (1) {
		while (in(NET_RX_STATUS) > 0) { handle(); }
		wfi();
	}
}
`

// kvClientSource sends one request per 40 ms timer tick: 25 requests per
// virtual second, keyed by the seeded RNG device.
const kvClientSource = kvPorts + `
const SERVER = 0;
var tick = 0;
var last_tick = 0;
var replies = 0;

interrupt(0) func on_tick() { tick = tick + 1; }
interrupt(1) func on_net() { }

func drain() {
	while (in(NET_RX_STATUS) > 0) {
		var n = in(NET_RX_LEN);
		out(NET_RX_DONE, 0);
		replies = replies + 1;
	}
}

func main() {
	out(TIMER_PERIOD, 40000);
	sti();
	while (1) {
		drain();
		if (tick != last_tick) {
			last_tick = tick;
			var r = in(RNG);
			out(NET_TX_BYTE, r & 0xFF);
			out(NET_TX_BYTE, (r >> 8) & 0xFF);
			out(NET_TX_BYTE, (r >> 16) & 0xFF);
			out(NET_TX_BYTE, (r >> 24) & 0xFF);
			out(NET_TX_COMMIT, SERVER);
		}
		wfi();
	}
}
`

func compileKV() (server, client *avm.Image, err error) {
	if server, err = avm.Compile("kv-server", kvServerSource, kvServerMem); err != nil {
		return nil, nil, fmt.Errorf("kvstate server: %w", err)
	}
	if client, err = avm.Compile("kv-client", kvClientSource, 64<<10); err != nil {
		return nil, nil, fmt.Errorf("kvstate client: %w", err)
	}
	return server, client, nil
}

// buildKV assembles the kvstate deployment through the public API.
func buildKV(c scenarioCfg) (*recording, error) {
	server, client, err := compileKV()
	if err != nil {
		return nil, err
	}
	d, err := avm.NewDeployment(avm.DeploymentConfig{
		Mode: c.mode, Seed: c.seed, SnapshotEveryNs: c.snapEveryNs, KeyBits: keyBits,
	})
	if err != nil {
		return nil, err
	}
	rec := &recording{run: func(untilNs uint64) { d.World.Run(untilNs) }}
	for idx, n := range []struct {
		name string
		img  *avm.Image
	}{{"kv-server", server}, {"kv-client", client}} {
		mon, err := d.AddNode(n.name, n.img, idx)
		if err != nil {
			return nil, err
		}
		rec.mons = append(rec.mons, mon)
	}
	rec.auditor = func(idx int) (*avm.Auditor, error) {
		return d.Auditor(string(rec.mons[idx].Node()), []*avm.Image{server, client}[idx])
	}
	return rec, nil
}
