import dendrodyn


def test_every_exported_name_resolves():
    assert [name for name in dendrodyn.__all__ if not hasattr(dendrodyn, name)] == []
    assert len(set(dendrodyn.__all__)) == len(dendrodyn.__all__)
