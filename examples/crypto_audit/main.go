// Crypto audit: regenerate the paper's Table 2 — the four case
// studies (curve25519-donna, libsodium secretbox, OpenSSL ssl3 record
// validation, OpenSSL MEE-CBC), each compiled under the branchy C
// backend and the constant-time FaCT backend, analyzed with the
// §4.2.1 two-phase procedure.
package main

import (
	"fmt"
	"log"

	"pitchfork/spectre"
)

func main() {
	rows, err := spectre.Table2()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Table 2 — ✓: violation found; f: found only with forwarding-hazard detection; –: clean; ?: inconclusive (state budget exhausted)")
	fmt.Println()
	fmt.Print(spectre.RenderTable2(rows))
}
