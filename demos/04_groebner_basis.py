"""
The marked quadratic basis and its confluence
=============================================

For a closed family the presentation ideal has a Groebner basis read
off directly from the incomparable pairs: each rule replaces such a
product of two presentation variables by the pair naming its rewrite.
All leads are squarefree quadratics and both sides share the same image
under the toric map.  Rule pairs with coprime leads need no work
(Buchberger's product criterion); each pair with leads a*b and a*c is a
critical pair, and its two rewrites of the cubic a*b*c must reach the
same monomial normal form.  Newman's lemma turns these joinable critical
pairs into confluence, given termination, which the (c, e) measure
shows (acceptance criterion 07); hence the marked set really is a
Groebner basis.
"""
import pathlib

from reescert import build_basis, confluence_check, family_from_file, psi_eval

here = pathlib.Path(__file__).parent
fam = family_from_file(here / "families" / "tower4.json")

basis = build_basis(fam)
print(f"{len(basis)} rules, one per incomparable pair\n")

print("a few rules (lead -> trail), with the shared toric image:")
for g in basis[:4]:
    image = psi_eval(g.lead, fam)
    print(f"  {g.lead.text()} -> {g.trail.text()}   psi = {image.text()}")

agree = all(psi_eval(g.lead, fam) == psi_eval(g.trail, fam) for g in basis)
print(f"\npsi(lead) == psi(trail) for every rule: {agree}")

report = confluence_check(basis)
print(f"rule pairs: {report.pairs_total}, skipped with coprime leads:"
      f" {report.pairs_skipped}")
print(f"critical pairs joined: {report.pairs_reduced},"
      f" failures: {len(report.failures)}")
print(f"longest normal-form chain of one rewrite:"
      f" {report.max_reduction_length} steps")
