import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "campaign_rounds.py"
_spec = importlib.util.spec_from_file_location("campaign_rounds", _SCRIPT)
campaign_rounds = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(campaign_rounds)

# the first five round seeds of perfbench's campaigns workload
SEEDS = ("1003489252", "956094517", "750133916", "289749568", "393825770")


def test_campaign_rounds_print_the_report_hash(capsys, monkeypatch):
    # the claims without --field read the default field from the environment
    monkeypatch.delenv("EDGEIDEALS_FIELD", raising=False)
    assert campaign_rounds.main(list(SEEDS)) == 0
    head, timing, digest = capsys.readouterr().out.splitlines()
    assert head == "5 rounds of 7 claims"
    assert timing.startswith("rounds ") and timing.endswith(" s")
    assert digest == "sha256 " + HASH_5_ROUNDS


HASH_5_ROUNDS = "d4befc1c205719d016ffa532557345565b7f7af7e36f02f2e77bfe9c4c2ffb4f"
