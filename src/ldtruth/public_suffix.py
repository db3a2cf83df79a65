"""Compact public-suffix snapshot for pay-level-domain extraction.

This is a frozen subset of the well-known suffix list, not a live copy:
common top-level domains, the frequent second-level registries, a few
hosting domains that act as registration points, and the list's wildcard
(``*.ck``, ``*.er``, ``*.fk``) and exception (``www.ck``) rules.  Unlisted
suffixes fall back to the default rule, which treats the last label as
the suffix.  A host whose last label is all digits, as an IP literal's
is, names no domain and is its own pay-level domain.
"""

_PLAIN_RULES = frozenset("""
com org net edu gov mil int info biz name pro aero coop museum travel
io ai co me tv cc us de fr uk nl it es pt se no fi dk pl cz sk at ch be
ie hu ro gr bg ru ua jp kr cn tw hk sg in au nz br ar mx cl ca za eg il
tr sa ae th my id vn ph eu is lt lv ee si hr rs
co.uk org.uk ac.uk gov.uk me.uk net.uk sch.uk nhs.uk
com.au net.au org.au edu.au gov.au id.au
co.jp ne.jp or.jp ac.jp go.jp ad.jp ed.jp gr.jp lg.jp
com.cn net.cn org.cn edu.cn gov.cn ac.cn
co.kr or.kr ne.kr re.kr go.kr ac.kr
com.br net.br org.br gov.br edu.br
co.in net.in org.in firm.in gen.in ind.in ac.in edu.in gov.in
com.mx org.mx gob.mx edu.mx net.mx
co.nz net.nz org.nz govt.nz ac.nz
co.za org.za net.za gov.za ac.za web.za
com.sg net.sg org.sg edu.sg gov.sg
com.hk net.hk org.hk edu.hk gov.hk
com.tw net.tw org.tw edu.tw gov.tw
com.tr net.tr org.tr edu.tr gov.tr
com.ar net.ar org.ar edu.ar gob.ar
com.ua net.ua org.ua gov.ua edu.ua
com.eg com.sa com.my com.ph com.vn
github.io gitlab.io blogspot.com herokuapp.com appspot.com
""".split())

# A wildcard rule covers every single extra label under its base; an
# exception rule carves one registrable name back out of a wildcard.
_WILDCARD_RULES = frozenset({"ck", "er", "fk"})
_EXCEPTION_RULES = frozenset({"www.ck"})


def pay_level_domain(host: str) -> str:
    """Public suffix plus one label; the host itself if none is left."""
    labels = host.split(".")
    if labels[-1].isdigit():
        return host
    for start in range(len(labels)):    # longest candidate suffix first
        suffix, base = ".".join(labels[start:]), ".".join(labels[start + 1:])
        if suffix in _EXCEPTION_RULES:
            return suffix
        if suffix in _PLAIN_RULES or base in _WILDCARD_RULES:
            return ".".join(labels[max(start - 1, 0):])
    return ".".join(labels[-2:])        # the default rule: the last label
