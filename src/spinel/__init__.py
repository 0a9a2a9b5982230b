"""Spine-local type inference for System F.

The engine infers omitted lambda annotations and type arguments by
confining meta-variables to the application spine that minted them,
and elaborates accepted terms to fully annotated System F.

The package exports nothing of its own: each name is imported from the
module that defines it, as the README lists (``spinel.infer``,
``spinel.parser``, ``spinel.oracle``, ...).
"""
