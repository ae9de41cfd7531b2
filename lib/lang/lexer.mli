(** Hand-written lexer for MiniC.

    Supports decimal integer literals, C identifiers, [//] line comments
    and [/* ... */] block comments. *)

exception Error of string * Token.pos

val tokenize : string -> Token.t list
(** The token stream, always ending with {!Token.EOF}.
    Raises {!Error} on unexpected characters, unterminated comments and
    integer literals past [max_int]. *)
