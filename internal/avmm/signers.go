package avmm

import "repro/internal/sig"

// NodeSigners returns the signer each of a scenario's nodes records with:
// null signers in a mode that does not sign, paper-sized digests when the
// experiment wants the bytes of a signature without its cost (fake), and
// otherwise real RSA keys — the expensive case, generated concurrently.
func NodeSigners(mode Mode, fake bool, keySeed string, nodes ...sig.NodeID) map[sig.NodeID]sig.Signer {
	signers := make(map[sig.NodeID]sig.Signer, len(nodes))
	switch {
	case !mode.Signs():
		for _, id := range nodes {
			signers[id] = sig.NullSigner{Node: id}
		}
	case fake:
		for _, id := range nodes {
			signers[id] = sig.SizedSigner{Node: id, Size: sig.PaperSigBytes}
		}
	default:
		for _, key := range sig.MustGenerateRSAAll(nodes, sig.DefaultKeyBits, keySeed) {
			signers[key.ID()] = key
		}
	}
	return signers
}
