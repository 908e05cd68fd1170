(** The tagging names of the two-level Figure-1 pipeline, kept for the
    benchmark's adapter: each is a call into {!Deep_publish}, whose one
    tagger serves every depth. *)

val tag_to_buffer : Deep_publish.encoding -> Cursor.t -> Buffer.t -> unit
(** {!Deep_publish.tag_to_buffer}. *)

type strategy = Deep_publish.strategy =
  | Sorted_outer_union  (** the classical Section 2 pipeline *)
  | Gapply_pass         (** one GApply pass per child element type *)

val publish : ?strategy:strategy -> Catalog.t -> Publish.spec -> Xml.t
(** Plan, execute and tag a publishing spec end-to-end.
    Default strategy: [Gapply_pass]. *)
