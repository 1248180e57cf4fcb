import pytest

from archives import write_cifar100_archives, write_cifar10_archives


@pytest.fixture
def cifar10_dir(tmp_path):
    return write_cifar10_archives(tmp_path / "cifar10")


@pytest.fixture
def cifar100_dir(tmp_path):
    return write_cifar100_archives(tmp_path / "cifar100")
