package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/proteome"
)

// worldDigest is a SHA-256 over every byte of a generated world: the
// universe's domains, then, per species in order, every protein's ID,
// description, residues, families and divergence bits. Strings are length
// prefixed, so no two worlds share a byte stream.
func worldDigest(u *proteome.Universe, ps []*proteome.Proteome) string {
	h := sha256.New()
	for _, d := range u.Domains {
		putString(h, d)
	}
	for _, p := range ps {
		putUint(h, uint64(len(p.Proteins)))
		for _, pr := range p.Proteins {
			putString(h, pr.Seq.ID)
			putString(h, pr.Seq.Description)
			putString(h, pr.Seq.Residues)
			putUint(h, uint64(len(pr.Families)))
			for _, f := range pr.Families {
				putUint(h, uint64(f))
			}
			putUint(h, math.Float64bits(pr.Divergence))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func putUint(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func putString(h hash.Hash, s string) {
	putUint(h, uint64(len(s)))
	h.Write([]byte(s))
}

// buildWorld builds the universe and the four paper proteomes through an
// Env, the way every experiment does.
func buildWorld(seed uint64) (*proteome.Universe, []*proteome.Proteome) {
	e := NewEnv(seed)
	var ps []*proteome.Proteome
	for _, sp := range proteome.PaperSpecies() {
		ps = append(ps, e.Proteome(sp))
	}
	return e.Universe, ps
}

// TestGenerateGolden pins every generated byte of the campaign world at two
// seeds. Every table, figure and campaign report is derived from these
// bytes, so a change to how the world is generated must leave these
// constants as they are.
func TestGenerateGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("generates all four proteomes at two seeds")
	}
	for _, c := range []struct {
		seed uint64
		want string
	}{
		{DefaultSeed, "9292d6b0f9395a268204acf3c7aba583c3ffab515e57d2a69acbdd3831897fbf"},
		{7, "3b99a3b6b57b9f88a433fc66245d883578ae30203f4a860023c48d2d9e372c0a"},
	} {
		if got := worldDigest(buildWorld(c.seed)); got != c.want {
			t.Errorf("seed %d: world digest %s, want %s", c.seed, got, c.want)
		}
	}
}
