(** Machine words for the untagged kernels ({!Fe25519}, {!Sha256},
    {!Poly1305}, {!Chacha20}): the compiler's own primitives on
    [nativeint] and [int64], declared [external] so that every use
    compiles to the instruction itself, in any module, even under
    [-opaque].  A [let]-bound result, or a [ref] local to one function,
    that is only ever passed to these stays an unboxed 64-bit register
    value: no allocation, no tag bit.  A function, even an [@inline] one
    defined in another module, is an out-of-line call under [-opaque],
    so helpers built on these live in the kernel that uses them.

    The kernels assume 64-bit words ([Sys.word_size = 64]), as the
    field arithmetic always has. *)

external of_int : int -> nativeint = "%nativeint_of_int"
external to_int : nativeint -> int = "%nativeint_to_int"
external ( + ) : nativeint -> nativeint -> nativeint = "%nativeint_add"
external ( - ) : nativeint -> nativeint -> nativeint = "%nativeint_sub"
external ( * ) : nativeint -> nativeint -> nativeint = "%nativeint_mul"
external ( land ) : nativeint -> nativeint -> nativeint = "%nativeint_and"
external ( lor ) : nativeint -> nativeint -> nativeint = "%nativeint_or"
external ( lxor ) : nativeint -> nativeint -> nativeint = "%nativeint_xor"
external ( lsl ) : nativeint -> int -> nativeint = "%nativeint_lsl"
external ( lsr ) : nativeint -> int -> nativeint = "%nativeint_lsr"
external ( asr ) : nativeint -> int -> nativeint = "%nativeint_asr"

external of_int64 : int64 -> nativeint = "%int64_to_nativeint"
external to_int64 : nativeint -> int64 = "%int64_of_nativeint"

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
(** Eight bytes in the host's byte order, unchecked. *)

external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
(** Unchecked, in the host's byte order. *)

external bswap64 : int64 -> int64 = "%bswap_int64"

external big_endian : unit -> bool = "%big_endian"
(** The host's byte order as a compile-time constant: a branch on it
    is folded away. *)
