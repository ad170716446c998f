package floorplan

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/netlist"
)

// suiteDigests holds the SHA-256 of netlist.EncodeJSON for each suite
// circuit in the three variants of digestVariants, in that order.
var suiteDigests = map[string][3]string{
	"apte": {
		"c98f3bc7130fcbc6c5a1e094ed8c2495ad5c391c18eac471cf2a541161bb11dc",
		"c887d76e3764d3e91925d405ee91294c60b9552f29ba198ba371729cbf1a6b17",
		"89efe823100fba46a76f97390e656286bf12a8a94a02c42a50a582f6dddde819",
	},
	"xerox": {
		"82eb5a78354605589b522df7c0e8afb5f180d8047fc0b3ce49809afe411932cb",
		"28e769fc1dbdfbbfdbd46ed801e2216ba2be51b9cfae75b2a4258a09a0b18a54",
		"e8bddd0b1c11325186bb267fb380ae97580451d71107a10315b8334df16ab8f2",
	},
	"hp": {
		"437a3bfc974c5ce53e82109cba4256b580b68c15b0a58ec00341a0d30ed1fee9",
		"66512bd52977f49830502885c872fc35ec09436675bb90bc878ef60a4274b7b0",
		"4e3ebd0d6a4f5cbbd681eea658532cbc751692e801a436a81f77d0ab9719592e",
	},
	"ami33": {
		"0fc80954285a73ab91905ce4aaee681f28607e9cd7c326a66da0f21a3f05d2e1",
		"1cc0ef2ca6bcf8f27ecf3e04d5ed22d0f9211852981d931fb3275b2d826482fa",
		"6d554ee104fc4553c04bcd57dd5fcdbc706bdcc1073618005fedee36f9e52717",
	},
	"ami49": {
		"997e227cf10929e350a28603e097cf931e5b67a7e70f511dbbc2ac5b84eb29b9",
		"4e00a2483ee6ff43df293c600364cc69ff20c63d688b8a8c70b0bcefdc725240",
		"27b3b653a8443cf940cc66ef5f154fc6a7ce9aeb0dc29f760df12a18371e13ff",
	},
	"playout": {
		"e9cf820bf2102c0594c1626c06ca97f61ae1af679fe4f051a20006f355544e27",
		"e777723505d7fb32b5b26ae58e684f6da373de228df34ffaedc8a7d0089b0168",
		"0290b53409e2c0b10536b2bf9087715744fe9029836033b452f8da9066f10fff",
	},
	"ac3": {
		"b0d9be8c776940543ba43530824073aa1243c6e0c9b2350204eabebdd3b58eb4",
		"414bebdf2832ab9754275b2a3985a26381141b7d891fe281f0dec7e235bb4d15",
		"7b1a5fe6e391825b71bafd6a615d55875f673ad610a083c01fbdcd3b1956a7e9",
	},
	"xc5": {
		"fd917b19b8e7134221a6809a92554cca373b293856077fdc12b1c639ee6bf541",
		"33293aea9f65e5815d8e7728ce36183d688f3a2c1eeb5166cf381a47237d6b55",
		"aaef33ad992bddb27b8a76d0487e3d23d183bcc598077d7ea39faa994380a1eb",
	},
	"hc7": {
		"8eeb90e39e8e89d9d4d7c31be68adaea29eaea61aa4b248498cbb9327095698f",
		"fcc0481af9fae2f3abcc978f31499235ca39542f3ceefbddfffbc3cfbbe98797",
		"0aeec03513b2e019975b4ecea1f50aa26c39a94051a39f5a8047bbadb411ce0b",
	},
	"a9c3": {
		"19d06efe73bd6d709be35058ed6c04f7211ac641d9f150f24fcea466e6dba681",
		"fd5eb99f014d9579bcb88ad48d1f4e20d25a50baa134c603f7c61d5e255451b7",
		"0726b98285f0fa428e1afdab7d35a3fa212abb805d385f50fcc92a79fd876f7d",
	},
}

// digestVariants are the generator inputs whose output is pinned: the base
// tiling, the Table VI coarse tiling (a third per axis) and an override of
// the site budget and the seed.
func digestVariants(spec Spec) [3]Options {
	return [3]Options{
		{},
		{GridW: spec.GridW / 3, GridH: spec.GridH / 3},
		{Sites: spec.Sites / 2, Seed: 2001},
	}
}

// TestSuiteCircuitDigests pins the generator's output byte for byte. Every
// table, golden and workload starts from these circuits, and each is fixed
// by the order of its rng draws, so a change to that order, or to any step
// that consumes the rng, fails here before it moves a result downstream.
func TestSuiteCircuitDigests(t *testing.T) {
	for _, spec := range Suite() {
		for i, opt := range digestVariants(spec) {
			c, err := Generate(spec, opt)
			if err != nil {
				t.Fatalf("%s %+v: %v", spec.Name, opt, err)
			}
			h := sha256.New()
			if err := netlist.EncodeJSON(h, c); err != nil {
				t.Fatalf("%s %+v: %v", spec.Name, opt, err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != suiteDigests[spec.Name][i] {
				t.Errorf("%s %+v: digest %s, want %s", spec.Name, opt, got, suiteDigests[spec.Name][i])
			}
		}
	}
}
