package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/exp"
	"repro/internal/machine"
)

// goldenDigests pins the SHA-256 of Outcome.JSON for each covered
// (profile, figure) pair at tiny() scale, keyed "profile/figure". The
// determinism tests compare a run against another run of the same code, so
// a change that moves both sides equally passes them; these digests pin
// the result bytes themselves. A deliberate model change updates the
// affected entries in the same change.
//
// Coverage: every figure on t2; fig2, fig4, fig5 and fig6 on every other
// profile; fig7 on t2 and xor only (it costs about ten seconds per
// profile); scaling once, because it sweeps its own profiles and its
// trajectory is the same whichever profile the options carry. Under
// -short only fig4 and fig7, the seconds-long sweeps, are skipped.
var goldenDigests = map[string]string{
	"t2/fig2":        "0b5315c20a283fd3035b57867b8e2206d42c7b8800fcd88df060eef651045832",
	"t2/fig4":        "37632a1336e0f3e7dfb6228f0aaf3efe944319314cfdd9c5d9979677b2ef37ab",
	"t2/fig5":        "973d35b9f78ecf10c71e6d8c2a1c4abcf1e17c6f252c730acd5687e0a3365987",
	"t2/fig6":        "38145a5ae5d0b2fcf170e517286fff99e3237f07b7af19f61acf40f45b5fbada",
	"t2/fig7":        "97feaf03456b7947343a6572e0eac0c5a8be26573339e4546bb9cab6f05067b3",
	"t2/scaling":     "23b7ff056c0444b39a992fe6f2e1c8e4da5bef86323835b9e22cf779424ad642",
	"t2-1mc/fig2":    "c074e7dff264cbc003cd7dd43e105f35f2fa0b5d04cac3633ccd99ddd81d9ceb",
	"t2-1mc/fig4":    "bd9347d127b5629fe6de94ad374f1527501a5db68a57f9a5513acf909a27c3e9",
	"t2-1mc/fig5":    "da1f012aba041f95ca872de8e4a9d4288b0fa1fb3b2e4e67a6adc1d0157791d2",
	"t2-1mc/fig6":    "a30bdf4b536749ac71378c94b9a25315de6bce191c9a920a27230335eb2b7ce1",
	"t2-2mc/fig2":    "ec9188d6fbe91f01a362ce0fd48d2bd22911c807273c0df95ec7ab38d512ca40",
	"t2-2mc/fig4":    "5a7f7e74d2abbb99f2b41c9993eb05e75666d44407bc04618b27905008578fd5",
	"t2-2mc/fig5":    "78979f2c8c48bc90f19c0bd7b033a01aec88635b60b764fdd391df979860899c",
	"t2-2mc/fig6":    "fe8ff4f4bf43b1088873f61f30cb0b0af06bf874c828076deb35a8ede3b2adc0",
	"mc8/fig2":       "66f00d197dfc47316295485fe2bed0d63e0ace1a781633324fa6dd24cb179926",
	"mc8/fig4":       "62500be8f3bb0bfdc90b5202e722ef7534304529fcab704311f1af68d9945053",
	"mc8/fig5":       "00a69c76d3a4ce2e535876c190b5bd5a1f42359cfd2a2ee54889bb6405e03360",
	"mc8/fig6":       "9a1766109943ee7529e61983c62fb32494c020be02b40af8ec13f1984b125fe4",
	"t2-wide1k/fig2": "a6560d639be19d4f56e52a1dc2580d65f5fcae6713e6208230c619e6a0d54f45",
	"t2-wide1k/fig4": "eb9e001272be4daffd438b6e99051213e6d9421967435d913301e5a17cb398e0",
	"t2-wide1k/fig5": "23bfa7bef2948324066d1eb5665d771890c3291b0687229f23ffecb6747cf1d2",
	"t2-wide1k/fig6": "82f01018b581dc2c81f262652f8d6fc8f1f66bca024e72f801d5f0650ca31526",
	"t2-wide4k/fig2": "e1670ff918265b18c01be883e9989b0ba4418d0d6954a60edcb12119205ba860",
	"t2-wide4k/fig4": "77cac4a055b626dac70a613fcaed50f613704195614dd6a61e368d164cf35d33",
	"t2-wide4k/fig5": "557da6f1127b4e1bfa4e9eb81bf3334233ee85b087794a4f612ec660f15ec556",
	"t2-wide4k/fig6": "bc89d7e87c95d172bec3c56e84ac3bdda0223726c0f2e28dc8e369db9b13f300",
	"xor/fig2":       "b39b4b214e8454c404ef153d4ec9c69890c9091172d3aa6658a2fd7cccdccf40",
	"xor/fig4":       "e63d67327cb5d1bd4251ec6162d4ccf5819dc81c03df7f9c6a6124e1358b9161",
	"xor/fig5":       "d7699a870171063a03d1795c2e5cec3e396336d5a6bd6b1bc9a2b44b997316fa",
	"xor/fig6":       "ef34810e58fb881e3f786f6d9d2130ba6105c7abd8506ded934fcc518500651d",
	"xor/fig7":       "13d6a6fa8981aad662097b2986c50bd253d3cb7db54f08aba9786bd4822ed7d5",
	"single/fig2":    "f163a623032873f44eace478992fde13b5c990e38674f7348251153a78f4ba5a",
	"single/fig4":    "f0d612bc230ba5427106eabf3412d0925439fe33116f86da0d8cb519c0e1dc02",
	"single/fig5":    "1972fd61e5a41d941b166d7b093fd822040450e507a5d7bd18ec1103837c7aa4",
	"single/fig6":    "ace93ae7e280b1f4ef96b960af3a4f32a8929b192ca60f4e0744ac6e59d7c559",
}

func TestGoldenDigests(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range machine.Profiles() {
		for _, f := range Figures(tiny().WithProfile(p)) {
			key := p.Name + "/" + f.Name
			want, ok := goldenDigests[key]
			if !ok {
				continue
			}
			seen[key] = true
			e := f.Exp
			slow := f.Name == "fig4" || f.Name == "fig7"
			t.Run(key, func(t *testing.T) {
				if slow && testing.Short() {
					t.Skip("seconds per profile; runs in the full tier")
				}
				out, err := exp.Runner{}.Run(e)
				if err != nil {
					t.Fatal(err)
				}
				b, err := out.JSON()
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				if got := hex.EncodeToString(sum[:]); got != want {
					t.Errorf("digest %s, want %s", got, want)
				}
			})
		}
	}
	for key := range goldenDigests {
		if !seen[key] {
			t.Errorf("golden entry %s names no registered profile and figure", key)
		}
	}
}
