"""Numpy-backed autodiff engine: tensors (``tensor``), modules (``nn``) and
gradient checking (``gradcheck``); import the submodules, as there are no
flat names here."""
