package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

// goldenReportSHA256 pins every experiment report under DefaultConfig()
// bit for bit: the SHA-256 of each Renderers() entry's output. The
// E-tests check that each number lies in the paper's range; this
// checks that none of them moved. A change that moves a digest changes
// a published number and must say so.
var goldenReportSHA256 = map[string]string{
	"table1":        "6619064fb8254adc65496f7da00ec4e955688ef00f4eaa2d5ed1ebd86c70519d",
	"fig2":          "10ef31088204ec35f9debb1abdec387098edbfa803926f89c2a3527ed08405c9",
	"table2":        "940d6357ddec04ba61f3840f798c5787ef51e1d55ba4dd58d5afd29a7789e583",
	"fig3":          "2bdd685507aed712f222e2d5ca809e831a3adf86250601bf6b9fd19507e3cb15",
	"fig4":          "a69180842bca4ff7543017a86f45c8a0479bff0890880dbc7b9afe05c544e9fe",
	"fig5a":         "30038f11b2be1df891807a9109bce72aba766a5d6af02dae508d57010dce8725",
	"fig5b":         "7fa1c3aafd4d81be68e8884183c5935786a8bb66c8d0bd69e823b673a939dda2",
	"table3":        "3d7cc76bd6f0eba94652cd6f87279501410fab22369035a9eca8f4e4b4c55ab7",
	"fig6":          "2561717ae8e70935ff92b7b108e5ed40988a11b38620c713f0101fe58c37a538",
	"table4":        "7819234f2c598654dc0171c58a6a6f019d81c0513f7830b5fee44d16f8fcf85a",
	"seventh":       "a39ce54d5d4eeba5dfaecd0a81b3b56d15e3110541f36dcf90d276737164a0e5",
	"ablations":     "885d90931ca98d3e9fe83028b296feeacdd959d700fd8e4b7d38494cd669fca6",
	"baselines":     "fc74f97ff3a566238cc8b1e683781368b1a408ac32476edcf6771c5195c7398b",
	"strategies":    "bccd59d93ce21dc90a8f5fd8f1e9f9646fcfe02467d9db06867ecc1813d38efd",
	"transform":     "f1ea903b0d0094e366a2780d94ab0bad6b8b7064fea9c78036140d6416c2c938",
	"hetero":        "59af7bae78334a56f427aa86137c237e0881b34a6e5c90b4adf9179e398f02b5",
	"stability":     "ef83369fda22b4395b39e0b4ff35a067136cc15256cf284245a7d43fa50ae821",
	"crossplatform": "188911e5994ac2f041fb4c5e4acd77ee6d46fdc2e25de2d3cc59907c4297082d",
}

// TestExperimentsGolden renders the whole registry on the shared test
// context, so it reuses the campaigns the E-tests already acquired.
func TestExperimentsGolden(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		// As for the acquisition goldens: other targets may fuse
		// x*y+z into one rounding, which moves the last digits.
		t.Skipf("golden digests are captured on linux/amd64; %s/%s may fuse multiply-adds", runtime.GOOS, runtime.GOARCH)
	}
	reports, err := testCtx(t).RunAllCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(goldenReportSHA256) {
		t.Errorf("registry has %d experiments, golden pins %d", len(reports), len(goldenReportSHA256))
	}
	for _, r := range reports {
		sum := sha256.Sum256([]byte(r.Output))
		got := hex.EncodeToString(sum[:])
		if want, ok := goldenReportSHA256[r.ID]; !ok {
			t.Errorf("%s: no golden digest", r.ID)
		} else if got != want {
			t.Errorf("%s: report digest %s, want %s\n%s", r.ID, got, want, r.Output)
		}
	}
}
