package repro.matching

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.UserDefinedFunction
import org.apache.spark.sql.functions._

/** Similarity measures used by the matching solutions (pure Scala versions
  * for driver-side use plus Column expressions for DataFrame pipelines).
  */
object Similarity {

  /** Whitespace tokenization, lower-cased, empty tokens dropped. */
  def tokens(s: String): Set[String] =
    if (s == null) Set.empty
    else s.toLowerCase.split("\\s+").iterator.filter(_.nonEmpty).toSet

  /** Jaccard similarity of whitespace token sets; null-safe (null → 0). */
  def tokenJaccard(a: String, b: String): Double = {
    val ta = tokens(a); val tb = tokens(b)
    if (ta.isEmpty || tb.isEmpty) 0.0
    else {
      val inter = ta.intersect(tb).size
      inter.toDouble / (ta.size + tb.size - inter)
    }
  }

  /** Levenshtein similarity 1 − dist/maxLen; null-safe (null → 0). */
  def levenshteinSim(a: String, b: String): Double = {
    if (a == null || b == null || (a.isEmpty && b.isEmpty)) return if (a != null && b != null) 1.0 else 0.0
    val d = levenshteinDistance(a.toLowerCase, b.toLowerCase)
    1.0 - d.toDouble / math.max(a.length, b.length)
  }

  private[matching] def levenshteinDistance(a: String, b: String): Int = {
    if (a.isEmpty) return b.length
    if (b.isEmpty) return a.length
    var prev = Array.tabulate(b.length + 1)(identity)
    var cur  = new Array[Int](b.length + 1)
    var i = 1
    while (i <= a.length) {
      cur(0) = i
      var j = 1
      while (j <= b.length) {
        val cost = if (a.charAt(i - 1) == b.charAt(j - 1)) 0 else 1
        cur(j) = math.min(math.min(cur(j - 1) + 1, prev(j) + 1), prev(j - 1) + cost)
        j += 1
      }
      val t = prev; prev = cur; cur = t
      i += 1
    }
    prev(b.length)
  }

  /** Column expression: Levenshtein similarity of two string columns. */
  def levenshteinSimCol(a: Column, b: Column): Column = {
    val la = lower(a.cast("string")); val lb = lower(b.cast("string"))
    val maxLen = greatest(length(la), length(lb))
    when(a.isNull || b.isNull, lit(0.0))
      .when(maxLen === 0, lit(1.0))
      .otherwise(lit(1.0) - levenshtein(la, lb).cast("double") / maxLen.cast("double"))
  }

  /** Column expression: null-aware exact-equality similarity (1/0). */
  def equalityCol(a: Column, b: Column): Column =
    when(a.isNotNull && b.isNotNull && a === b, lit(1.0)).otherwise(lit(0.0))

  /** Vocabulary-discounted token Jaccard: models a solution whose learned
    * token weights cover only its training vocabulary. Shared tokens the
    * solution knows count fully, shared tokens it does not know count half
    * (it sees the string equality but has no learned weight for it):
    *
    *   (|A∩B| + |A∩B∩V|) / (2·|A∪B|)
    *
    * Equal to the plain token Jaccard when every shared token is known, and
    * degrading gracefully with the out-of-vocabulary fraction — the
    * mechanism behind train/test gaps on low-vocabulary-similarity splits
    * (Frost, Appendix C.2).
    */
  def tokenJaccardKnown(a: String, b: String, vocab: Set[String]): Double = {
    val ta = tokens(a); val tb = tokens(b)
    if (ta.isEmpty || tb.isEmpty) 0.0
    else {
      val inter = ta.intersect(tb)
      val knownInter = inter.count(vocab.contains)
      val union = ta.size + tb.size - inter.size
      (inter.size + knownInter) / (2.0 * union)
    }
  }

  /** Encoder of string columns into sorted token-ID arrays for
    * [[knownJaccardCol]]: each value is tokenized once with [[tokens]] and
    * its tokens looked up in a driver dictionary of the distinct tokens of
    * `attrs` over `records` (one Spark job). Tokens in `vocab` get IDs >= 0,
    * the others IDs < 0; with no vocabulary every token counts as known. A
    * null value encodes to null. The dictionary is broadcast once and the UDF
    * captures only its handle, so the tasks that read a table computed
    * through the encoder, including scans of a cached one, do not carry it.
    */
  def tokenEncoder(records: DataFrame, attrs: Seq[String], vocab: Option[Set[String]]): UserDefinedFunction = {
    require(attrs.nonEmpty, "need at least one attribute to encode")
    val tokensOf = udf((s: String) => tokens(s).toArray)
    val distinct = attrs.map(a => records.select(explode(tokensOf(col(a))).as("token")))
      .reduce(_ union _).distinct().collect().map(_.getString(0))
    val dict = records.sparkSession.sparkContext.broadcast(dictionary(distinct, vocab))
    udf((s: String) => encode(s, dict.value))
  }

  /** Token -> ID over the sorted known tokens (all of them without a
    * vocabulary), numbered from 0 up, and the sorted unknown ones, numbered
    * from -1 down. Two sorted arrays rather than a hash map, as they
    * serialize compactly into the broadcast.
    */
  private[matching] final class TokenDictionary(known: Array[String], unknown: Array[String]) extends Serializable {
    def id(t: String): Int = {
      val k = java.util.Arrays.binarySearch(known.asInstanceOf[Array[AnyRef]], t)
      if (k >= 0) k
      else {
        val u = java.util.Arrays.binarySearch(unknown.asInstanceOf[Array[AnyRef]], t)
        if (u >= 0) -1 - u else throw new IllegalStateException(s"token '$t' is not in the dictionary")
      }
    }
  }

  private[matching] def dictionary(distinct: Array[String], vocab: Option[Set[String]]): TokenDictionary = {
    val (known, unknown) = distinct.sorted.partition(t => vocab.forall(_.contains(t)))
    new TokenDictionary(known, unknown)
  }

  /** The sorted IDs of the tokens of `s`; null stays null. */
  private[matching] def encode(s: String, dict: TokenDictionary): Array[Int] =
    if (s == null) null
    else {
      val ids = tokens(s).iterator.map(dict.id).toArray
      java.util.Arrays.sort(ids)
      ids
    }

  /** [[tokenJaccardKnown]] over two encoded token sets, as one sorted
    * merge: shared IDs count once, shared known (>= 0) IDs once more.
    */
  private[matching] def knownJaccard(x: Array[Int], y: Array[Int]): Double =
    if (x.length == 0 || y.length == 0) 0.0
    else {
      var i = 0; var j = 0; var inter = 0; var knownInter = 0
      while (i < x.length && j < y.length) {
        val u = x(i); val v = y(j)
        if (u < v) i += 1
        else if (v < u) j += 1
        else { inter += 1; if (u >= 0) knownInter += 1; i += 1; j += 1 }
      }
      (inter + knownInter) / (2.0 * (x.length + y.length - inter))
    }

  // Array[Int], not Seq[Int]: a Seq argument boxes every ID.
  private val knownJaccardUdf = udf((x: Array[Int], y: Array[Int]) => knownJaccard(x, y))

  /** Column expression: [[knownJaccard]] of two non-null columns encoded
    * by the same [[tokenEncoder]].
    */
  def knownJaccardCol(a: Column, b: Column): Column = knownJaccardUdf(a, b)
}
