package audit

import (
	"reflect"
	"testing"

	"repro/internal/tevlog"
	"repro/internal/vm"
	"repro/internal/wire"
)

// fuzzSyntacticLog turns fuzz bytes into a log segment: a header byte (which
// options, how much of the front to cut off so the segment does not start
// at 1) and then two bytes per step, an entry kind and an argument. The
// kinds cover every entry type with its signature valid, corrupted, missing
// or from an unknown node, references backwards, forwards and past the end,
// and malformed contents. Signatures come from the pre-signed pool of the
// signature-fault table, so a step costs no RSA signing.
func fuzzSyntacticLog(w *sigWorld, data []byte) ([]tevlog.Entry, SyntacticOptions) {
	opts := SyntacticOptions{Keys: w.keys, VerifySignatures: true}
	if len(data) == 0 {
		return nil, opts
	}
	hdr := data[0]
	opts.StrictAcks = hdr&1 != 0
	opts.VerifySignatures = hdr&2 == 0
	cut := int(hdr >> 4)

	const maxEntries = 600 // several batches and more than one ring of signatures
	var ents []tevlog.Entry
	var lastRecv, lastSend uint64
	var lastPayload []byte
	icount := uint64(0)
	add := func(typ tevlog.EntryType, content []byte) {
		ents = append(ents, tevlog.Entry{Type: typ, Content: content})
	}
	poolRecv := func(arg byte) *wire.RecvContent {
		rc, _ := wire.ParseRecv(w.honest[recvAt(int(arg)%sigCycles)].Content)
		return rc
	}
	poolAck := func(arg byte) *wire.AckContent {
		ac, _ := wire.ParseAck(w.honest[ackAt(int(arg)%sigCycles)].Content)
		return ac
	}
	step := func(kind, arg byte) {
		seq := uint64(len(ents) + 1)
		switch kind % 18 {
		case 0, 1, 2, 3:
			rc := poolRecv(arg)
			switch kind % 18 {
			case 1:
				rc.SenderSig = flipSig(rc.SenderSig)
			case 2:
				rc.SenderSig = nil
			case 3:
				rc.SrcNode = "stranger"
			}
			lastRecv, lastPayload = seq, rc.Payload
			add(tevlog.TypeRecv, rc.Marshal())
		case 4: // inject the latest RECV
			icount += 10
			add(tevlog.TypeIRQ, (&wire.EventContent{Kind: wire.EventInjectPacket, Landmark: vm.Landmark{ICount: icount},
				RecvSeq: lastRecv, SrcIdx: 1, Payload: lastPayload}).Marshal())
		case 5: // inject whatever arg points at, behind or ahead
			icount += 10
			add(tevlog.TypeIRQ, (&wire.EventContent{Kind: wire.EventInjectPacket, Landmark: vm.Landmark{ICount: icount},
				RecvSeq: uint64(arg), SrcIdx: 1, Payload: lastPayload}).Marshal())
		case 6:
			lastSend = seq
			add(tevlog.TypeSend, (&wire.SendContent{MsgID: seq, Dest: 1}).Marshal())
		case 7:
			add(tevlog.TypeSend, (&wire.SendContent{MsgID: uint64(arg), Dest: 1}).Marshal())
		case 8, 9, 10, 11, 12:
			ac := poolAck(arg)
			ac.MsgID = lastSend
			switch kind % 18 {
			case 9:
				ac.PeerSig = flipSig(ac.PeerSig)
			case 10:
				ac.MsgID = uint64(arg)
			case 11:
				ac.MsgID = uint64(arg)
				ac.PeerSig = flipSig(ac.PeerSig)
			case 12:
				ac.PeerSig = nil
			}
			add(tevlog.TypeAck, ac.Marshal())
		case 13:
			add(tevlog.TypeNondet, (&wire.NondetContent{Port: vm.PortClockLo, Value: uint64(arg)}).Marshal())
		case 14: // an interrupt whose landmark may run backwards
			add(tevlog.TypeIRQ, (&wire.EventContent{Kind: wire.EventIRQ, Landmark: vm.Landmark{ICount: uint64(arg) * 10}}).Marshal())
		case 15: // content no parser accepts, under any type including unknown ones
			add(tevlog.EntryType(arg%9), []byte{0x80 | arg})
		case 16:
			add(tevlog.TypeAnnotation, []byte{arg})
		}
	}
	for i := 1; i+1 < len(data) && len(ents) < maxEntries; i += 2 {
		kind, arg := data[i], data[i+1]
		if kind%18 == 17 { // repeat the previous step arg more times
			if i < 3 {
				continue
			}
			for n := 0; n < int(arg) && len(ents) < maxEntries; n++ {
				step(data[i-2], data[i-1]+byte(n))
			}
			continue
		}
		step(kind, arg)
	}
	entries := synthLog(ents...)
	if cut > len(entries) {
		cut = len(entries)
	}
	return entries[cut:], opts
}

// FuzzSyntacticOrder: the checker parses entries after a signature it does
// not yet know to be bad, which the serial pass never did. Whatever the
// entries — and whatever the stage's helpers got to first — the verdict and
// every counter must be the serial pass's, with the signatures verified by
// the submitter alone (one P) and by the pool (four).
func FuzzSyntacticOrder(f *testing.F) {
	w := getSigWorld(f)
	// An honest run of cycles; a forged RECV followed by a structural fault;
	// forward references around a bad ACK; a long run that wraps the ring
	// with a forgery in the middle; a segment cut mid-cycle.
	f.Add([]byte{0, 0, 1, 4, 0, 6, 0, 8, 1, 13, 0, 0, 2, 4, 0, 6, 0, 8, 2})
	f.Add([]byte{0, 1, 7, 4, 0, 14, 0, 6, 0, 9, 3, 15, 2})
	f.Add([]byte{1, 6, 0, 11, 9, 0, 4, 10, 200, 5, 8, 13, 0, 13, 0, 13, 0})
	f.Add([]byte{0, 0, 5, 17, 255, 1, 9, 0, 5, 17, 255, 14, 0})
	f.Add([]byte{0x30, 0, 1, 4, 0, 6, 0, 8, 1, 0, 2, 4, 0, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, opts := fuzzSyntacticLog(w, data)
		wantStats, wantFault := serialSyntacticCheck("m", entries, opts)
		for _, procs := range []int{1, 4} {
			var stats SyntacticStats
			var fault *FaultReport
			atProcs(procs, func() { stats, fault = SyntacticCheck("m", entries, opts) })
			if stats != wantStats || !reflect.DeepEqual(fault, wantFault) {
				t.Fatalf("procs=%d over %d entries:\n got %+v %+v\nwant %+v %+v", procs, len(entries), stats, fault, wantStats, wantFault)
			}
		}
	})
}
