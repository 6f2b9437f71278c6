"""The tests import ``repro`` from this checkout's ``src/``."""

from perfbench import use_checkout_src

use_checkout_src()
