import pytest

from archives import write_cifar100_archives, write_cifar10_archives


@pytest.fixture
def cifar10_dir(tmp_path):
    return write_cifar10_archives(tmp_path / "cifar10")


@pytest.fixture
def cifar100_dir(tmp_path):
    return write_cifar100_archives(tmp_path / "cifar100")


@pytest.fixture(scope="session")
def cifar10_full_archives(tmp_path_factory):
    """Generated CIFAR-10 archives at full size (5 x 10,000 train records, 10,000
    test), written once per session; link them into a fresh directory
    (``archives.link_archives``) to start from no normalization cache."""
    return write_cifar10_archives(tmp_path_factory.mktemp("cifar10-full"),
                                  train_per_file=10000, test_count=10000, seed=0)
