"""Golden bytes of every CLI report.

Each case runs ``bpecsim <argv>`` in process and pins the sha256 of what it
writes to stdout: the three figure datasets, the region report as text and as
JSON at five parameter points, six sweeps and simulate reports per scheme at
n = 1000 (with the default guard and with a short one), n = 20000 and
n = 40000.
A change to any printed number, key order, label or line ending changes them.
An intended output change re-records the pins and lists them in CHANGES.md.
"""
import hashlib
import json

import pytest

from bpecsim.cli import main

REGION_POINTS = {
    "capacity": ("0.75", "0", repr(32 / 35)),
    "readme": ("0.75", "0.125", "0.5"),
    "reversed": ("0.2", "0.6", "0.3"),
    "erased": ("1", "1", "0.5"),
    "clean": ("0", "0", "0"),
}

CASES = {
    **{f"figure-{name}": ["figure", name] for name in ("fig3", "fig4", "fig5")},
    **{f"region-{k}-text": ["region", *v] for k, v in REGION_POINTS.items()},
    **{f"region-{k}-json": ["region", *v, "--format", "json"] for k, v in REGION_POINTS.items()},
    # both grids span an exact multiple of their step
    "sweep-fig4-params": ["sweep", "--delta-a", "0.75", "--delta-b", "0.125",
                          "--eta-grid", "0:1:0.05"],
    # the seed-1 grid of the sweep benchmark: its span is no multiple of its step
    **{f"sweep-offset-{k}": ["sweep", "--delta-a", "0.75", "--delta-b", b,
                             "--eta-grid", "0.00013436424411240124:1:0.001"]
       for k, b in (("capacity-params", "0"), ("fig4-params", "0.125"))},
    # one regular point: stop alone, and start then stop
    "sweep-stop-only": ["sweep", "--delta-a", "0.75", "--delta-b", "0.125",
                        "--eta-grid", "1:1:0.1"],
    "sweep-step-past-stop": ["sweep", "--delta-a", "0.75", "--delta-b", "0.125",
                             "--eta-grid", "0.3:0.3001:0.5"],
    # delta_a < delta_b leaves inter_modal_sum blank
    "sweep-reversed": ["sweep", "--delta-a", "0.2", "--delta-b", "0.6",
                       "--eta-grid", "0.25:0.75:0.125"],
    **{f"simulate-{scheme}": ["simulate", "--n", "1000", "--trials", "50", "--scheme", scheme]
       for scheme in ("inter", "intra", "nofb")},
    # the inter-modal analysis does not apply here, so its sum is never printed
    "simulate-intra-reversed": ["simulate", "--delta-a", "0.2", "--delta-b", "0.6",
                                "--eta", "0.3", "--n", "1000", "--trials", "50",
                                "--scheme", "intra"],
    # blocks of many trials with a guard short enough that some trials fail, so
    # the report depends on the realizations: a full block and a partial one
    **{f"simulate-{scheme}-n1000-guard": ["simulate", "--delta-a", "0.75", "--delta-b", "0.125",
                                          "--eta", "0.5", "--delta-t", "0.5", "--n", "1000",
                                          "--guard-coeff", "0.75", "--trials", "100",
                                          "--seed", "7", "--scheme", scheme]
       for scheme in ("inter", "intra", "nofb")},
    # blocks of three trials, the last one partial; with no guard some trials
    # fail, so the report depends on every realization
    **{f"simulate-{scheme}-n20000": ["simulate", "--n", "20000", "--trials", "8",
                                     "--guard-coeff", "0", "--scheme", scheme]
       for scheme in ("inter", "intra", "nofb")},
    # past half the block limit each trial runs through run_trial and samples
    # through ChannelSampler.slots
    **{f"simulate-{scheme}-n40000-guard": ["simulate", "--n", "40000", "--trials", "8",
                                           "--guard-coeff", "0", "--scheme", scheme]
       for scheme in ("inter", "intra", "nofb")},
}

SHA256 = {
    "figure-fig3": "fdffd4f160e5472c3b9b3154d9b0ef8fc5d9da0ec2b272ad5fecc80d0b7c7f2a",
    "figure-fig4": "1fbb4a0005895435eae220b7268c99153f5b023fda74a48b7f940a9fb4b652eb",
    "figure-fig5": "a2af448061b9e0fbe98c78be1b2093dd44907517a68b017be33b6bf076c53d59",
    "region-capacity-json": "8aa0f6d61205cac550c1b475ab59705f343d3d4ea207686b13cd4c5054f46def",
    "region-capacity-text": "17e42ba7b3f39bd931b3d0dee7b3352f8e46c0796536a82fce756be533ad880e",
    "region-clean-json": "8d1446eb10515e632ed9cb2823baa8e78e0c1a7fc10dc359d648dbb136b82e16",
    "region-clean-text": "f940de0924371def49640006c5a0d3351b11220752a2d9050961c267afbef9a7",
    "region-erased-json": "d295badd889edb3ef3900204b39e922464ddf9b293eda846c6273cf1f2d5b871",
    "region-erased-text": "e551c7faf8df93f68bdc6392f0f3b81dfc416dbab41e89ed3bb9f7bfa2aa1ac3",
    "region-readme-json": "11728b49c604e3f68658b60e457925bf75ecd7237b15d663d4b3346f1aa9f761",
    "region-readme-text": "2097d0512215eed8b4f639987771274fafbca4801aa0d8379b3a314cfaaacd60",
    "region-reversed-json": "046f9bdcffb3635c40a495e1ca278a27124c4b844d9bc4acb7926de6baa9b57e",
    "region-reversed-text": "48a3e4813e76fa53f7ddc38a2b15a4098be3a956ad1f072234a46d58eacdb6ad",
    "simulate-inter": "ff91a490678e187a7197e027f76e9369eff994dee44998cb1a2fd73f3b54d074",
    "simulate-inter-n1000-guard": "5265346240430bfa4b8fc42a35055215476f5914672a54e5e469f809a50ee3e2",
    "simulate-inter-n20000": "14cf95cda0b2f0453113fb6671827c4925dc5d8f69b939e0628c0f5236061c42",
    "simulate-inter-n40000-guard": "82ad4555edd9f16b63e1ad1ac075eb91f27dae5274a8fdfe9fd73f0626a14617",
    "simulate-intra": "deab5533d4fbe1075add6f0d845096b21cd833ea3ad31ef1ebe3466a672c24f1",
    "simulate-intra-n1000-guard": "6d90c53420a8b27ae227329a7f96fd1c7cd32bc040b5bd3535fdaee05d0fa585",
    "simulate-intra-n20000": "bf8c3edaed39b9c1c71d1c51e10380a585098c61bb6116ab0fff6cb01b5416a4",
    "simulate-intra-n40000-guard": "3a484d2e15b005fe3313dae6a0e3deed271269bdcd42756588177ba937bae538",
    "simulate-intra-reversed": "121116375573844b6eb24113adee50ef798489df31056df8ce209b43ddf1b744",
    "simulate-nofb": "d5fb7eaa15b4e0bd367b47a2cf7918ced85a965ec256b36b414f8bfdfdcb3ec6",
    "simulate-nofb-n1000-guard": "261a8956d5987eb028d08b868f7e76a95606922709b3ced408bf7dfdc0b5a7f9",
    "simulate-nofb-n20000": "529766dcd06f39cbd6ce1c1796976efaf6b65407e8566d54c57c3f71d63ebdfa",
    "simulate-nofb-n40000-guard": "59e0418d2d39b8f188d8a9573bc663b126cacfa1098766697d2e81891485668c",
    "sweep-fig4-params": "f7fc1151f80d261ac71cb2e30cd7d814e1d707a3ec0f50e7fb833f8e4ea16de1",
    "sweep-offset-capacity-params": "2fc51f402958c97444c0e0ddff77d66a11820ac2c19c0c97b736c8b91678547b",
    "sweep-offset-fig4-params": "4cc253f933911f4b08c71aff6c7dedd5eeac15fb01b73c36ead403a3437c6839",
    "sweep-reversed": "0ccbf38475c833ea8cc5254b46a4408b41d52c1f4ff9cd5e266f35d68d7036e7",
    "sweep-step-past-stop": "2849542be8f828355a732427985739cff4f29b67fb31ca947c66d09e4e459fce",
    "sweep-stop-only": "a21950d51490df55a61f0b043dbb2fc5b0aca706b6a2a15af033823dec6ba473",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_report_bytes_are_pinned(capsys, name):
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SHA256[name]


@pytest.mark.parametrize("name", sorted(k for k in CASES if k.endswith("-guard")))
def test_guarded_simulate_reports_depend_on_the_realizations(capsys, name):
    # a report whose trials all decode, or all fail, pins no channel realization
    assert main(CASES[name]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0 < report["failure_rate_1"] < 1
    assert 0 < report["failure_rate_2"] < 1
