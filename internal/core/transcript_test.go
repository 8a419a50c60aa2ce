package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"minshare/internal/transport"
)

// pinnedTranscripts holds, for each protocol and ChunkSize, the SHA-256
// of every frame each party sent (length-prefixed, in send order) in
// one seeded, unsharded run.  The digests pin the wire transcript
// across refactors of the protocol bodies: any change to a frame's
// kind, order, length or content — or to the order of the key draws
// that determine the ciphertexts — changes a digest.  Regenerate only
// for a deliberate wire change, and say so in the change's record.
var pinnedTranscripts = map[string][2]string{
	"intersection/chunk=0": {
		"2bedd286b7b32099b98735b6eeddd93eb1f87346804a0412faf925e63f632a2f",
		"1e1b191ab7dc43c4e1e63c3244bf12976d19ae67c7211684b887b4ad98bda3fa"},
	"intersection/chunk=3": {
		"f42e88dcaf7db7df5de3967c4703b2ad28b337a0ef0373e60f2f284a4cf2d4db",
		"5df93b1cede9468c9b51a392f4a7bc06ac4cb8334be54191ee983a7b1bd58df6"},
	"intersection-size/chunk=0": {
		"c9bb35afedb1b3e6a4aee266d94a074bf7220796af9f684da38206efd40d28f9",
		"94c76b743308546c9ae94e50ed4e5b091fb6e941147f842be55d211baa8e2b68"},
	"intersection-size/chunk=3": {
		"7ad584eb5444e07e645cb1b7752dcfac0d8522a4a14f92ac028ed8d6f116f428",
		"bb666f05a0c19ac55f843a1cd199862eb962746ec8ae6a0d71be2f84b5ec822b"},
	"equijoin/chunk=0": {
		"0d73885a218a07e9430b8f8a9ad75bec704a121ae1a5239fa41a6bf39a3b16c2",
		"11829877275785a4eeb301173dc9595845d906fb32145ae8d0d007d81726dee9"},
	"equijoin/chunk=3": {
		"8f56162d2dbeab25832e7d6899171e56672d4fb3b1207d129e96d3b5f52553bb",
		"0ab0ac7cecb55dbe25fdd12e84b54a4e6cd1abe139272fa83c66cb5bcebc0a1a"},
	"equijoin-size/chunk=0": {
		"40e84d8e9e23ff86082e5ffed198e4b15359ac19d83c621ee9ffe27b5fe5d8ca",
		"121c767a18c7f391e215660bcc945ba533f55ba5de4842d264cf9d6608767f2d"},
	"equijoin-size/chunk=3": {
		"f90cc923f0b4db5c89afc7d0011c798c1093367f36e91b347b4709125dc7ef04",
		"5b5dab809f2b5a5283edbd306473f05aedb7224c00c774f95a32589b473b6872"},
}

// transcriptDigest hashes frames as len(frame) ‖ frame, in order.
func transcriptDigest(frames [][]byte) string {
	h := sha256.New()
	var n [4]byte
	for _, f := range frames {
		binary.BigEndian.PutUint32(n[:], uint32(len(f)))
		h.Write(n[:])
		h.Write(f)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTranscriptPinned runs each of the four protocols under seeded
// Config.Rand, unsharded, legacy and chunked, and compares the digest of
// each direction's frames with the recorded value.
func TestTranscriptPinned(t *testing.T) {
	vR, vS := overlapping(11, 9, 4)
	// Duplicates: removed by the set protocols, kept by equijoin size.
	vR = append(vR, vR[0], vR[5])
	vS = append(vS, vS[0], vS[0], vS[7])
	records := make([]JoinRecord, len(vS))
	for i, v := range vS {
		records[i] = JoinRecord{Value: v, Ext: []byte("ext-of-" + string(v))}
	}

	type party func(ctx context.Context, cfg Config, conn transport.Conn) error
	protos := []struct {
		name     string
		recv, sd party
	}{
		{"intersection",
			func(ctx context.Context, cfg Config, conn transport.Conn) error {
				_, err := IntersectionReceiver(ctx, cfg, conn, vR)
				return err
			},
			func(ctx context.Context, cfg Config, conn transport.Conn) error {
				_, err := IntersectionSender(ctx, cfg, conn, vS)
				return err
			}},
		{"intersection-size",
			func(ctx context.Context, cfg Config, conn transport.Conn) error {
				_, err := IntersectionSizeReceiver(ctx, cfg, conn, vR)
				return err
			},
			func(ctx context.Context, cfg Config, conn transport.Conn) error {
				_, err := IntersectionSizeSender(ctx, cfg, conn, vS)
				return err
			}},
		{"equijoin",
			func(ctx context.Context, cfg Config, conn transport.Conn) error {
				_, err := EquijoinReceiver(ctx, cfg, conn, vR)
				return err
			},
			func(ctx context.Context, cfg Config, conn transport.Conn) error {
				_, err := EquijoinSender(ctx, cfg, conn, records)
				return err
			}},
		{"equijoin-size",
			func(ctx context.Context, cfg Config, conn transport.Conn) error {
				_, err := EquijoinSizeReceiver(ctx, cfg, conn, vR)
				return err
			},
			func(ctx context.Context, cfg Config, conn transport.Conn) error {
				_, err := EquijoinSizeSender(ctx, cfg, conn, vS)
				return err
			}},
	}
	for _, p := range protos {
		for _, chunk := range []int{0, 3} {
			name := fmt.Sprintf("%s/chunk=%d", p.name, chunk)
			t.Run(name, func(t *testing.T) {
				connR, connS := transport.Pipe()
				defer connR.Close()
				rc := &recordingConn{Conn: connR}
				sc := &recordingConn{Conn: connS}
				cfgR, cfgS := testConfig(21), testConfig(22)
				cfgR.ChunkSize, cfgS.ChunkSize = chunk, chunk
				ctx := context.Background()
				done := make(chan error, 1)
				go func() { done <- p.sd(ctx, cfgS, sc) }()
				if err := p.recv(ctx, cfgR, rc); err != nil {
					t.Fatalf("receiver: %v", err)
				}
				if err := <-done; err != nil {
					t.Fatalf("sender: %v", err)
				}
				got := [2]string{transcriptDigest(rc.transcript()), transcriptDigest(sc.transcript())}
				if want := pinnedTranscripts[name]; got != want {
					t.Errorf("transcript drifted:\n receiver %s\n   pinned %s\n   sender %s\n   pinned %s",
						got[0], want[0], got[1], want[1])
				}
			})
		}
	}
}
