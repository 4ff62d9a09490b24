(** Bulk moves on [int array]s at memory speed.

    [Array.blit] and [Array.fill] are polymorphic: on an array in the
    major heap they run the OCaml write barrier on every word, even when
    every word is an immediate int. Page data (VMA contents, snapshot
    buffers, packed bitmaps) lives in exactly such arrays, so the
    simulator moves it through these monomorphic kernels instead: plain
    stores, no barrier, several times faster per word.

    Both functions check their arguments exactly as the [Array] versions
    do and raise [Invalid_argument] in the same cases. Only for [int
    array]s: an array holding pointers needs the barrier. *)

val blit : int array -> int -> int array -> int -> int -> unit
(** [blit src src_pos dst dst_pos len] copies [len] words, like
    [Array.blit]. Correct when [src == dst] and the ranges overlap, in
    either direction.
    @raise Invalid_argument if either range is not valid. *)

val fill : int array -> int -> int -> int -> unit
(** [fill a pos len v] stores [v] into [len] words from [pos], like
    [Array.fill].
    @raise Invalid_argument if the range is not valid. *)
