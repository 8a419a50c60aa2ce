package oracle

import (
	"fmt"
	"testing"

	"minshare/internal/group"
)

// goldenECHash pins Hash over the ec25519 backend: the SHA-256
// counter-mode expansion, Elligator2, cofactor clearing and the
// compressed encoding, end to end.  The outputs were produced by the
// square-and-multiply field kernels and must survive any rewrite of
// the curve arithmetic byte for byte.
var goldenECHash = []struct{ domain, in, out string }{
	{"", "", "ecdb7ac844ed3dee0ab80d3aaf103c5c432ca22df2fc4368486e8cb5d3b499a7"},
	{"", "a", "61c2f7c842a957e31398c51c33451d8a834275ad7da8998370c467d533a3b469"},
	{"", "alice", "e5dc6aa664b07a8dad34dfa63d2f62e6c836c280db4b97bc4d09231716aa6a42"},
	{"minshare/golden", "bob@example.com", "bba8ef50d6c909900d09bd5fa26f27e73a2d6b563b966b6f62639e8f86f88236"},
	{"", "Information Sharing Across Private Databases", "78e55bbaf7524d6444cec60029866ff95059b83d684778cda5f745eb9501e511"},
	{"", "\x00\x01\x02\xff", "875e5d5fe0944f70843cf86bfe3be34fde562998c21f89c7c8c7856f3c273ecc"},
	{"", "1234567890", "39de711fb5f888569b2816b0c664c66edf93b1f4ea7fd94fe0c3153f9972a816"},
	{"minshare/golden", "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx", "4cd8879af86ba470208ca2d45cbeb3f4bd237dbc50b8ef79fa9e3998d701c91e"},
}

func TestGoldenECHash(t *testing.T) {
	for i, v := range goldenECHash {
		o := NewWithDomain(group.EC25519(), v.domain)
		if got := fmt.Sprintf("%064x", o.Hash([]byte(v.in))); got != v.out {
			t.Errorf("vector %d: Hash(%q)\n got %s\nwant %s", i, v.in, got, v.out)
		}
	}
}
