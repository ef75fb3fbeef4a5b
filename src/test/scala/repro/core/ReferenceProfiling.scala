package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The profile as a regex projection and a shuffle, the reference
  * [[Profiling.profile]] is checked against: each value's word count is
  * Spark's `split` on `\s+` with empty strings removed, and the gold
  * cluster sizes are counted by `reduceByKey`.
  */
object ReferenceProfiling {

  /** SP, TX, TC and PR of `records` and `gold` over `attrs`. */
  def profile(records: DataFrame, gold: DataFrame, attrs: Seq[String]): Profiling.Profile = {
    val words = records.select(attrs.map { a =>
      when(col(a).isNull, -1).otherwise(size(array_remove(split(col(a).cast("string"), "\\s+"), "")))
    }: _*)
    val k = attrs.size
    val perTask = words.rdd.mapPartitions { rows =>
      val t = new Array[Long](4) // rows, nulls, words, values with words
      rows.foreach { r =>
        t(0) += 1
        var i = 0
        while (i < k) {
          val w = r.getInt(i)
          if (w < 0) t(1) += 1 else if (w > 0) { t(2) += w; t(3) += 1 }
          i += 1
        }
      }
      Iterator(t)
    }.collect()
    def total(j: Int): Long = perTask.map(_(j)).sum
    val (rows, nulls, wordTotal, worded) = (total(0), total(1), total(2), total(3))
    val cells = rows * k
    Profiling.Profile(
      if (cells == 0) 0.0 else nulls.toDouble / cells,
      if (worded == 0) 0.0 else wordTotal.toDouble / worded,
      rows,
      positiveRatio(gold))
  }

  /** PR: the size of each cluster (a null ID is one cluster) counted by
    * `reduceByKey` and summed on the driver.
    */
  def positiveRatio(gold: DataFrame): Double = {
    val sizes = gold.select(col("cluster")).rdd.map(r => (r.get(0), 1L)).reduceByKey(_ + _).values.collect()
    val total = ConfusionMatrix.pairsOf(sizes.sum)
    if (total == 0) 0.0 else sizes.map(ConfusionMatrix.pairsOf).sum.toDouble / total
  }
}
