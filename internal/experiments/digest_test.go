package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// quickDigests pins the paper's reproduction: the SHA-256 of each
// experiment's tables under the quick protocol at seed 2017, rendered as
// `hambench -quick all` prints them to stdout (each table followed by a
// blank line). A kernel or training change that is meant to be exact must
// leave every digest alone; one that moves a paper number updates the
// digest of that experiment and says which number moved and why.
var quickDigests = map[string]string{
	"fig1":              "93aefcf633593449ecada42b289995338a5be33a9246616fd3dfa6c529f240b1",
	"table1":            "7aa797928c8c1ecbc19fb37e7362ec0f92bd349f796170e5f51ddddfab96403e",
	"table2":            "1c7453ce9ca9c7a45b2b508190f5226e0a40ffdfc6dbb54e9230f5fad93b1ecf",
	"fig4":              "298537482de494a941995699d84b73366a909125e874526788ffcefc04cb11c6",
	"fig5":              "d9be65778aebafbf47191bc59271e6b01b4a499557d1c63ebbd149e9697ef020",
	"fig7":              "c13f57c2d7b541821326247828c6ef9797d84dae254831b339dcc93f53faec79",
	"table3":            "bce3e37eeba1b9e980b3f790ae2b645557613a877f0fd775c68e6e1ad3905f24",
	"fig9":              "e602b555971611cbd854c7d329888f9cd1574afe9aa917be8ed66abe7a22a6ca",
	"fig10":             "03a63ef577931b0e9108ebf256d4eb4997e62d35bcc1aa4e2890b4ce10f8592a",
	"fig11":             "454b679c9631753613e86059e6bc1f096c78533c0c977aafdf989dfa34870e3e",
	"fig12":             "b835347c038558d9d41b2fd484dc759af7594713a752da4d41c38ebc9a7919a0",
	"fig13":             "5706c3dfd9dac158a509bd4e24a751ec5b0f34d17c377ba335fb5aff5fed8aec",
	"ablate-blocksize":  "586283c2db725d84ed653e5b2b57220abfb1aedfa679f3066c87320e48435dab",
	"ablate-errormodel": "c35402aa4d006bec9d5e6e9be9a2688048c25c3bd923f3632718198e93a4b075",
	"ablate-stages":     "149d8849eb768195f9c6498219525a84c7965c67ea8160a10bf6eb49299bc30c",
	"fault-sweep":       "b1c091f013c4e62a69dc8a8fc7d17da5ef88f9b5de4950cc3b210fb47319dc65",
	"standby":           "bcf37bc5b251dd20d02223001113545545772128dc3cf65a10502462285567ff",
}

// slowDigests are the experiments whose digests only the full run checks:
// -short runs the rest, which together take a couple of seconds.
var slowDigests = map[string]bool{"fault-sweep": true}

// TestQuickProtocolDigests runs every experiment of `hambench -quick all`
// in its run order on one shared environment, as hambench does, and
// compares each experiment's rendered tables with its checked-in digest.
// A failing subtest names the figure whose numbers moved.
func TestQuickProtocolDigests(t *testing.T) {
	env := NewEnv(QuickScale(), 2017)
	for _, id := range RunOrder {
		t.Run(id, func(t *testing.T) {
			if testing.Short() && slowDigests[id] {
				t.Skip("slow experiment; checked without -short")
			}
			tables, err := Run(id, env)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, tb := range tables {
				if err := tb.Render(h); err != nil {
					t.Fatal(err)
				}
				fmt.Fprintln(h)
			}
			if got, want := hex.EncodeToString(h.Sum(nil)), quickDigests[id]; got != want {
				t.Errorf("%s: quick-protocol tables changed: digest %s, want %s", id, got, want)
			}
		})
	}
}
