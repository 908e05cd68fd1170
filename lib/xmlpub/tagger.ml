(* The tagging names of the two-level Figure-1 pipeline, kept for the
   benchmark's adapter (perf/layers.ml); the tagger itself is
   Deep_publish's. *)

let tag_to_buffer = Deep_publish.tag_to_buffer

type strategy = Deep_publish.strategy = Sorted_outer_union | Gapply_pass

let publish ?strategy catalog spec =
  Deep_publish.publish ?strategy catalog (Publish.lower spec)
